"""Span tracing for the benchmark's traced run.

The program carries no tracing code. Instead, `Tracer.install` wraps the
public functions of each lakekernel layer from here, and `uninstall`
puts the originals back. A span is recorded only while the calling
thread is inside a client op (see `begin_op`), so set-up and the
benchmark's own correctness checks leave no spans.

Each span is a list ``[id, label, start_ns, end_ns, parent_id, op_id,
child_ns]``; ``child_ns`` sums the durations of its direct children, so
a span's self time is ``end - start - child_ns``. Spans stay in memory
until `per_layer` turns them into the per-layer metrics.

Leaf calls that run thousands of times per op (``Catalog.get_commit``,
``Commit.from_body``, file reads) are counted, not spanned: a span each
would dominate both memory and the tracing overhead. Their time is part
of the enclosing span's self time.
"""
from __future__ import annotations

import functools
import itertools
import pathlib
import sys
import threading
import time
from collections import Counter

_now = time.perf_counter_ns

LAYERS = ("store", "catalog", "engine", "verify", "governance", "runner",
          "kernel", "cli", "util")

ID, LABEL, START, END, PARENT, OP, CHILD = range(7)

# per-layer metrics of the traced window: unit, better. Counts are per
# client op, times are mean ms per call of the function named.
PER_LAYER = {
    "store.put_calls": ("1/op", "lower"),
    "store.put_ms": ("ms", "lower"),
    "store.bytes_written": ("B/op", "lower"),
    "store.get_calls": ("1/op", "lower"),
    "store.get_ms": ("ms", "lower"),
    "store.bytes_read": ("B/op", "lower"),
    "store.encode_mb_s": ("MB/s", "higher"),
    "store.decode_mb_s": ("MB/s", "higher"),
    "store.put_dedup_ratio": ("ratio", "higher"),
    "catalog.get_commit_calls_per_merge": ("1/merge", "lower"),
    "catalog.commit_file_reads": ("1/op", "lower"),
    "catalog.merge_base_ms": ("ms", "lower"),
    "catalog.merge_ms": ("ms", "lower"),
    "catalog.commit_tables_ms": ("ms", "lower"),
    "catalog.ref_reads_per_op": ("1/op", "lower"),
    "catalog.refs_bytes_per_op": ("B/op", "lower"),
    "catalog.conflict_ratio": ("ratio", "lower"),
    "engine.parse_ms": ("ms", "lower"),
    "engine.plan_ms": ("ms", "lower"),
    "engine.exec_ms": ("ms", "lower"),
    "engine.rows_in": ("1/op", "lower"),
    "engine.rows_out": ("1/op", "lower"),
    "engine.rows_per_s": ("1/s", "higher"),
    "verify.evaluate_ms": ("ms", "lower"),
    "verify.verdicts_at_commit_ms": ("ms", "lower"),
    "verify.verdict_files_per_merge": ("1/merge", "lower"),
    "governance.checks_per_run": ("1/run", "lower"),
    "governance.check_ms": ("ms", "lower"),
    "governance.audit_bytes_per_op": ("B/op", "lower"),
    "runner.run_self_ms": ("ms", "lower"),
    "runner.list_runs_ms": ("ms", "lower"),
    "kernel.merge_ms": ("ms", "lower"),
    "kernel.query_ms": ("ms", "lower"),
    "kernel.open_ms": ("ms", "lower"),
    "cli.main_ms": ("ms", "lower"),
    "util.atomic_write_calls": ("1/op", "lower"),
    "util.atomic_write_bytes": ("B/op", "lower"),
    **{f"{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


class Tracer:
    def __init__(self, data_dir):
        self.data_dir = str(pathlib.Path(data_dir).resolve())
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._counters_lock = threading.Lock()
        self._undo: list[tuple] = []

    # -- per-thread state ---------------------------------------------------

    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
            local.counts = Counter()
            with self._counters_lock:
                self._counters.append(local.counts)
        return local

    def begin_op(self, op_id) -> None:
        self._thread().op = op_id

    def end_op(self) -> None:
        self._thread().op = None

    def counts(self) -> Counter:
        total = Counter()
        with self._counters_lock:
            for c in self._counters:
                total.update(c)
        return total

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, label, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._thread()
            if local.op is None:
                return fn(*args, **kwargs)
            stack = local.stack
            parent = stack[-1] if stack else None
            rec = [next(tracer._ids), label, _now(), 0,
                   parent[ID] if parent is not None else -1, local.op, 0]
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = _now()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += end - rec[START]
                tracer.spans.append(rec)
            if after is not None:
                after(local, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, fn, count):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            local = tracer._thread()
            if local.op is not None:
                count(local, args, result)
            return result

        return counted

    def wrap_method(self, cls, name, label=None, after=None, count=None):
        """Wrap cls.name in a span (label) or a counter (count)."""
        raw = cls.__dict__.get(name)
        if raw is None:
            self.missing.append(f"{cls.__name__}.{name}")
            return
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapper = (self._span_wrapper(label, fn, after) if label is not None
                   else self._count_wrapper(fn, count))
        setattr(cls, name, staticmethod(wrapper) if isinstance(raw, staticmethod)
                else wrapper)
        self._undo.append((cls, name, raw))

    def wrap_function(self, module, name, label, after=None, sites=None):
        """Wrap a module-level function in a span at every lakekernel module
        that imported it by name (or only at `sites`)."""
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        wrapper = self._span_wrapper(label, original, after)
        if sites is None:
            sites = [m for n, m in list(sys.modules.items())
                     if m is not None and (n == "lakekernel" or n.startswith("lakekernel."))]
        for mod in sites:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the layer map --------------------------------------------------------

    def install(self) -> None:
        from lakekernel import catalog, cli, governance, kernel, runner, store, verify
        from lakekernel.engine import executor, pipeline, planner, queries

        m, f = self.wrap_method, self.wrap_function

        def add(key, amount=1):
            return lambda local, args, kwargs, result: local.counts.update(
                {key: amount(args, kwargs, result) if callable(amount) else amount})

        # store: snapshot put/get and the codec
        m(store.SnapshotStore, "put_snapshot", "store.put")
        m(store.SnapshotStore, "get_snapshot", "store.get")
        f(store, "encode_table", "store.encode",
          after=add("store.encode_bytes", lambda a, k, r: len(r)))
        f(store, "decode_table", "store.decode",
          after=add("store.decode_bytes", lambda a, k, r: len(a[0])))

        # util.atomic_write where store and catalog imported it
        def write_bytes(key):
            def after(local, args, kwargs, result):
                local.counts.update({key: len(args[1]), "util.atomic_write_bytes": len(args[1])})
            return after

        f(store, "atomic_write", "util.atomic_write",
          after=write_bytes("store.bytes_written"), sites=[store])
        f(catalog, "atomic_write", "util.atomic_write",
          after=write_bytes("catalog.bytes_written"), sites=[catalog])

        # catalog: every public method is a span except the hot leaf get_commit
        for name in ("init", "branches", "branch_exists", "head", "resolve",
                     "create_branch", "delete_branch", "commit_tables", "log",
                     "merge_base", "open_session", "read_table", "table_map",
                     "diff"):
            m(catalog.Catalog, name, f"catalog.{name}")
        m(catalog.Catalog, "merge", "catalog.merge",
          after=add("catalog.conflicts",
                    lambda a, k, r: int(getattr(r, "kind", None) == "conflict")))

        def count_get_commit(local, args, result):
            if any(rec[LABEL] == "catalog.merge" for rec in local.stack):
                local.counts["catalog.get_commit_in_merge"] += 1

        m(catalog.Catalog, "get_commit", count=count_get_commit)
        m(catalog.Commit, "from_body",
          count=lambda local, args, result: local.counts.update({"catalog.commit_file_reads": 1}))

        # engine
        for mod, name, label in ((queries, "parse_query", "engine.parse"),
                                 (pipeline, "parse_pipeline", "engine.parse"),
                                 (pipeline, "format_pipeline", "engine.format"),
                                 (queries, "format_query", "engine.format"),
                                 (planner, "analyze_query", "engine.plan"),
                                 (planner, "plan", "engine.plan")):
            f(mod, name, label)

        def rows(local, args, kwargs, result):
            bindings = kwargs.get("bindings", args[1] if len(args) > 1 else {})
            local.counts["engine.rows_in"] += sum(t.num_rows() for t in bindings.values())
            local.counts["engine.rows_out"] += result.num_rows()

        f(executor, "execute_plan", "engine.exec", after=rows)

        # verify
        for name in ("register", "list_verifiers", "matching", "evaluate",
                     "verdicts_for_run", "verdicts_at_commit"):
            m(verify.VerifierRegistry, name, f"verify.{name}")
        f(verify, "check_shape", "verify.check_shape")

        # governance
        m(governance.Governor, "check", "governance.check")
        f(governance, "check_env", "governance.check_env")

        # runner
        for name in ("run", "list_runs", "get_run", "cleanup_temp"):
            m(runner.Runner, name, f"runner.{name}")

        # kernel: the narrow API, plus opening a kernel
        m(kernel.LakeKernel, "__init__", "kernel.open")
        for name in ("init", "reload_policy", "create_branch", "delete_branch",
                     "commit_tables", "merge", "open_session", "read_table",
                     "query", "run", "list_runs", "get_run", "cleanup_temp",
                     "register_verifier", "run_verifiers"):
            m(kernel.LakeKernel, name, f"kernel.{name}")

        # cli
        f(cli, "main", "cli.main")

        # file reads of the data dir, by kind of file
        for name in ("read_text", "read_bytes"):
            m(pathlib.Path, name, count=self._count_file_read)

    def _count_file_read(self, local, args, result) -> None:
        path = str(args[0])
        if not path.startswith(self.data_dir):
            return
        parts = path[len(self.data_dir):].lstrip("/").split("/")
        kind = "refs" if "refs" in parts[0] else parts[0]
        counts = local.counts
        counts[f"file_reads.{kind}"] += 1
        counts[f"file_bytes.{kind}"] += len(result)
        if any(rec[LABEL] == "kernel.merge" for rec in local.stack):
            counts[f"merge_file_reads.{kind}"] += 1

    # -- per-layer metrics ------------------------------------------------------

    def per_layer(self, ops: int, op_wall_ns: int, untraced_wall_ns: int,
                  runs: int, dedup_writes: int, audit_bytes: int) -> dict:
        """Per-layer metrics over the traced window.

        ops, op_wall_ns: client ops issued and their summed wall time.
        untraced_wall_ns: wall time of the same op sequence, untraced.
        runs: kernel.run calls. dedup_writes: snapshot files written, from
        SnapshotStore.io_counters. audit_bytes: growth of audit.log.
        """
        by_id = {rec[ID]: rec for rec in self.spans}
        calls = Counter()
        outer_ns = Counter()  # time in spans not nested in a span of the same label
        self_ns = Counter()
        for rec in self.spans:
            label = rec[LABEL]
            duration = rec[END] - rec[START]
            self_ns[label.split(".")[0]] += duration - rec[CHILD]
            if not _has_ancestor(rec, by_id, lambda r: r[LABEL] == label):
                calls[label] += 1
                outer_ns[label] += duration
        checks_in_runs = sum(
            1 for rec in self.spans if rec[LABEL] == "governance.check"
            and _has_ancestor(rec, by_id, lambda r: r[LABEL] == "kernel.run"))
        run_self_ns = sum(rec[END] - rec[START] - rec[CHILD]
                          for rec in self.spans if rec[LABEL] == "runner.run")
        c = self.counts()
        merges = calls["kernel.merge"]
        cat_merges = calls["catalog.merge"]

        def per(value, base):
            return value / base if base else 0.0

        def mean_ms(label, ns=None):
            return per((outer_ns[label] if ns is None else ns) / 1e6, calls[label])

        def mb_s(nbytes, label):
            return per(nbytes / 1e6, outer_ns[label] / 1e9)

        metrics = {
            "store.put_calls": per(calls["store.put"], ops),
            "store.put_ms": mean_ms("store.put"),
            "store.bytes_written": per(c["store.bytes_written"], ops),
            "store.get_calls": per(calls["store.get"], ops),
            "store.get_ms": mean_ms("store.get"),
            "store.bytes_read": per(c["file_bytes.objects"], ops),
            "store.encode_mb_s": mb_s(c["store.encode_bytes"], "store.encode"),
            "store.decode_mb_s": mb_s(c["store.decode_bytes"], "store.decode"),
            "store.put_dedup_ratio": per(calls["store.put"] - dedup_writes, calls["store.put"]),
            "catalog.get_commit_calls_per_merge": per(c["catalog.get_commit_in_merge"], cat_merges),
            "catalog.commit_file_reads": per(c["catalog.commit_file_reads"], ops),
            "catalog.merge_base_ms": mean_ms("catalog.merge_base"),
            "catalog.merge_ms": mean_ms("catalog.merge"),
            "catalog.commit_tables_ms": mean_ms("catalog.commit_tables"),
            "catalog.ref_reads_per_op": per(c["file_reads.refs"], ops),
            "catalog.refs_bytes_per_op": per(c["file_bytes.refs"], ops),
            "catalog.conflict_ratio": per(c["catalog.conflicts"], cat_merges),
            "engine.parse_ms": mean_ms("engine.parse"),
            "engine.plan_ms": mean_ms("engine.plan"),
            "engine.exec_ms": mean_ms("engine.exec"),
            "engine.rows_in": per(c["engine.rows_in"], ops),
            "engine.rows_out": per(c["engine.rows_out"], ops),
            "engine.rows_per_s": per(c["engine.rows_in"], outer_ns["engine.exec"] / 1e9),
            "verify.evaluate_ms": mean_ms("verify.evaluate"),
            "verify.verdicts_at_commit_ms": mean_ms("verify.verdicts_at_commit"),
            "verify.verdict_files_per_merge": per(c["merge_file_reads.verdicts"], merges),
            "governance.checks_per_run": per(checks_in_runs, runs),
            "governance.check_ms": mean_ms("governance.check"),
            "governance.audit_bytes_per_op": per(audit_bytes, ops),
            "runner.run_self_ms": mean_ms("runner.run", run_self_ns),
            "runner.list_runs_ms": mean_ms("runner.list_runs"),
            "kernel.merge_ms": mean_ms("kernel.merge"),
            "kernel.query_ms": mean_ms("kernel.query"),
            "kernel.open_ms": mean_ms("kernel.open"),
            "cli.main_ms": mean_ms("cli.main"),
            "util.atomic_write_calls": per(calls["util.atomic_write"], ops),
            "util.atomic_write_bytes": per(c["util.atomic_write_bytes"], ops),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_share"] = per(self_ns[layer], op_wall_ns)
        metrics["trace.coverage"] = per(sum(self_ns.values()), op_wall_ns)
        metrics["trace.overhead"] = per(op_wall_ns, untraced_wall_ns)
        return metrics


def _has_ancestor(rec, by_id, pred) -> bool:
    parent = by_id.get(rec[PARENT])
    while parent is not None:
        if pred(parent):
            return True
        parent = by_id.get(parent[PARENT])
    return False
