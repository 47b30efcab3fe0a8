"""Layer spans for the traced run, recorded from the benchmark's side.

:func:`install` wraps the public entry points of each layer in every
process of a run (the span names and their layers are listed in
``ledger.LAYERS``).  The wrappers are installed in
the benchmark process before it forks anything and in the server
process before it forks its shard workers, so every process carries
them.  They record only while a shared flag byte reads 1: the flag is
a one-byte file mapped by every process, so the client switches
tracing on and off for all of them at once (the traced run alternates
traced and untraced rounds and reports the difference as the tracing
overhead).

A span is kept as aggregates per name in memory -- count, total time,
self time (its duration minus the time its child spans on the same
thread cover) and any work count the wrapper adds -- plus the
per-call durations of the few spans whose growth matters
(``SAMPLED``).  Each process hands its aggregates back when it shuts
down: :func:`report`.
"""

from __future__ import annotations

import functools
import json
import mmap
import os
import resource
import threading
import time
from typing import Dict, List, Optional

#: Spans whose per-call durations are kept in order, not only summed.
SAMPLED = frozenset({"bulk.capture", "bulk.batch", "shard.bulk"})

_flag: Optional[mmap.mmap] = None
_agg: Dict[str, List[float]] = {}
#: Time spent in each span name under each parent span name.
_edges: Dict[str, float] = {}
_work: Dict[str, int] = {}
_samples: Dict[str, List[List[float]]] = {}
_local = threading.local()
_clock = time.perf_counter


def make_flag(path: str) -> None:
    """Create the shared flag file (tracing off)."""
    with open(path, "wb") as handle:
        handle.write(b"\0")


def attach(path: str) -> None:
    """Map the flag file in this process (every process that records)."""
    global _flag
    with open(path, "r+b") as handle:
        _flag = mmap.mmap(handle.fileno(), 1)


def set_tracing(on: bool) -> None:
    _flag[0] = 1 if on else 0


def tracing() -> bool:
    return _flag is not None and _flag[0] == 1


def reset() -> None:
    _agg.clear()
    _edges.clear()
    _work.clear()
    _samples.clear()


def _record(name: str, duration: float, child: float, work: int,
            parent: Optional[str] = None) -> None:
    if parent is not None:
        edge = parent + ">" + name
        _edges[edge] = _edges.get(edge, 0.0) + duration
    rec = _agg.get(name)
    if rec is None:
        rec = _agg[name] = [0, 0.0, 0.0]
    rec[0] += 1
    rec[1] += duration
    rec[2] += duration - child
    if work:
        _work[name] = _work.get(name, 0) + work
    if name in SAMPLED:
        _samples.setdefault(name, []).append([duration, work])


def record(name: str, duration: float, work: int = 0) -> None:
    """A span measured by hand (no children)."""
    _record(name, duration, 0.0, work)


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _enter(name: str) -> float:
    _stack().append([0.0, name])
    return _clock()


def _exit(name: str, start: float, work: int) -> None:
    duration = _clock() - start
    stack = _stack()
    child = stack.pop()[0]
    parent = None
    if stack:
        stack[-1][0] += duration
        parent = stack[-1][1]
    _record(name, duration, child, work, parent)


def wrap(fn, name, work=None):
    """``fn`` timed as span ``name``; ``work(args, kwargs)`` adds a work
    count (rows, objects copied) to the span."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if _flag is None or not _flag[0]:
            return fn(*args, **kwargs)
        start = _enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            _exit(name, start, work(args, kwargs) if work else 0)
    traced.__wrapped_layer__ = fn
    return traced


def wrap_async(fn, name):
    @functools.wraps(fn)
    async def traced(*args, **kwargs):
        if _flag is None or not _flag[0]:
            return await fn(*args, **kwargs)
        start = _enter(name)
        try:
            return await fn(*args, **kwargs)
        finally:
            _exit(name, start, 0)
    traced.__wrapped_layer__ = fn
    return traced


def _patch(owner, attr: str, name: str, work=None, is_async=False):
    fn = getattr(owner, attr)
    if getattr(fn, "__wrapped_layer__", None) is not None:
        return
    setattr(owner, attr, wrap_async(fn, name) if is_async
            else wrap(fn, name, work))


class _TimedLock:
    """A lock whose acquisition wait is recorded as
    ``backend.lock_wait`` (inside the handler's own span)."""

    def __init__(self, lock) -> None:
        self._lock = lock

    def __enter__(self):
        if tracing():
            start = _clock()
            self._lock.acquire()
            record("backend.lock_wait", _clock() - start)
        else:
            self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()
        return False


def install() -> None:
    """Wrap every layer's entry points (idempotent)."""
    from repro.net import backends, client, protocol, replication, server
    from repro.objects import pipeline, snapshot
    from repro.objects import store as store_mod
    from repro.query import planner
    from repro.semantics import checker
    from repro.sharding import router, worker
    from repro.storage import recovery, wal

    # net.protocol / net.client
    _patch(protocol, "encode_frame", "protocol.encode")
    _patch(protocol, "decode_payload", "protocol.decode")
    _patch(client.StoreClient, "call", "client.call")
    # net.server
    _patch(server.StoreService, "_dispatch", "server.dispatch",
           is_async=True)
    _patch(server.StoreService, "_send", "server.send", is_async=True)
    offload = server.StoreService._offload
    if getattr(offload, "__wrapped_layer__", None) is None:
        async def timed_offload(self, fn, *args, fenced=False):
            if not tracing():
                return await offload(self, fn, *args, fenced=fenced)
            submitted = _clock()

            def started(*inner):
                record("backend.wait", _clock() - submitted)
                return fn(*inner)
            try:
                return await offload(self, started, *args, fenced=fenced)
            finally:
                # The handler ran on an executor thread: count its wait
                # and run time as child time of the awaiting span.
                stack = _stack()
                if stack:
                    stack[-1][0] += _clock() - submitted
        timed_offload.__wrapped_layer__ = offload
        server.StoreService._offload = timed_offload
    # net.backends
    for cls in (backends.SnapshotBackend, backends.ConcurrentBackend,
                backends.ShardedBackend):
        for attr in list(vars(cls)):
            if attr.startswith("op_"):
                _patch(cls, attr, "backend." + attr)
    init = backends.ShardedBackend.__init__
    if getattr(init, "__wrapped_layer__", None) is None:
        def sharded_init(self, router_):
            init(self, router_)
            self._lock = _TimedLock(self._lock)
        sharded_init.__wrapped_layer__ = init
        backends.ShardedBackend.__init__ = sharded_init
    # objects.pipeline / objects.bulk / objects.snapshot
    _patch(pipeline.MutationPipeline, "execute", "pipeline.write")
    capture = pipeline.RestorePoint.__init__
    if getattr(capture, "__wrapped_layer__", None) is None:
        txn_capture = wrap(capture, "pipeline.txn_capture",
                           lambda a, k: len(a[1]._objects))
        bulk_capture = wrap(capture, "bulk.capture",
                            lambda a, k: len(a[1]._objects))

        def restore_point_init(self, store, include_stats=False):
            # The bulk loader is the one caller that captures counters.
            if include_stats:
                return bulk_capture(self, store, include_stats)
            return txn_capture(self, store, include_stats)
        restore_point_init.__wrapped_layer__ = capture
        pipeline.RestorePoint.__init__ = restore_point_init
    _patch(store_mod.ObjectStore, "bulk_load", "bulk.batch",
           lambda a, k: len(a[1]))
    _patch(snapshot.StoreSnapshot, "__init__", "snapshot.capture")
    # semantics (interpreted checker; compiled bulk checks are counted)
    for attr in ("check", "check_attribute", "check_classes",
                 "check_membership_loss"):
        _patch(checker.ConformanceChecker, attr, "conform.check")
    # query
    for module in (backends, router, worker):
        _patch(module, "parse_query", "query.parse")
    _patch(planner, "plan_query", "query.plan")
    _patch(planner, "execute_plan", "query.execute")
    # storage.wal / storage.recovery
    _patch(wal.WriteAheadLog, "append_fields", "wal.append")
    _patch(wal.WriteAheadLog, "commit", "wal.append")
    _patch(recovery, "recover_store", "recovery.recover")
    _patch(recovery, "_load_checkpoint", "recovery.checkpoint_load")
    _patch(recovery, "read_from", "recovery.read")
    _patch(recovery, "_replay_record", "recovery.replay")
    _patch(recovery, "checkpoint_store", "checkpoint.write")
    # net.replication
    _patch(replication, "dump_store", "repl.dump")
    _patch(replication, "install_dump", "repl.install")
    # sharding.router / sharding.wire / sharding.worker
    _patch(router.ShardedStore, "bulk_load", "shard.bulk",
           lambda a, k: len(a[1]))
    _patch(router.ShardedStore, "_send", "shard.send")
    _patch(router.ShardedStore, "_recv_ok", "shard.ipc_wait")
    _patch(router.ShardedStore, "query_wire", "shard.query")
    _patch(router.ShardedStore, "_merge_aggregates", "shard.merge")
    _patch(worker.ShardServer, "handle", "worker.op")


def install_process_report(directory: str, role: str) -> None:
    """Make every shard worker write its :func:`report` into
    ``directory`` when it shuts down (untraced runs need it too: peak
    RSS of the serving processes)."""
    from repro.sharding import worker
    close = worker.ShardServer.close
    if getattr(close, "__report_hook__", False):
        return

    def close_and_report(self):
        close(self)
        path = os.path.join(directory, f"{role}-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(report(f"{role}{self.shard_id}"), handle)
    close_and_report.__report_hook__ = True
    worker.ShardServer.close = close_and_report


def report(role: str) -> Dict[str, object]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"role": role, "pid": os.getpid(),
            "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "agg": {k: list(v) for k, v in _agg.items()},
            "edges": dict(_edges),
            "work": dict(_work),
            "samples": {k: list(v) for k, v in _samples.items()}}


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime
