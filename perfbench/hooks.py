"""Trace hooks: wrap public names where the layers call them.

Nothing under ``src/`` changes.  :func:`install` rebinds each traced
name in the module that calls it (``repro.serve.daemon.load_factor``,
``repro.core.scheduler.even_split_indices``, ...) or on its class
(``Schedule.validate``, ``PathIndex.__init__``), so every call made by
the program itself records a span.  The same hooks serve the daemon,
its forked shard worker and the in-process library workloads; a layer
a workload never enters simply records nothing.

Shard side: the pool's task function is replaced by
:func:`traced_pool_call`, which returns the worker's spans inside the
result dict, so they survive the pool worker's ``os._exit``.  The
daemon-side :class:`~repro.serve.shards.ShardPool` hook pulls them out
when the future completes and charges the rest of the round trip to
pickling and IPC.
"""

from __future__ import annotations

import time
from typing import Any

from spans import REQUEST_ID, Spans, current_parent

SPANS = Spans()
#: (name, perf_counter, main-thread CPU seconds) of every window marker
MARKS: list[tuple[str, float, float]] = []
#: perf_counter at each batcher add, keyed by id(PendingRequest)
_ADDED: dict[int, float] = {}
#: (end time, add→drain wait seconds) per drained request
WINDOW_WAITS: list[tuple[float, float]] = []
#: (completion time, round trip seconds, in-worker seconds) per dispatch
SUBMITS: list[tuple[float, float, float]] = []
MARK_PREFIX = "perfbench-"
_ORIGINAL_POOL_CALL: Any = None


def _patch(owner: Any, attr: str, name: str) -> None:
    setattr(owner, attr, SPANS.wrap(name, getattr(owner, attr)))


def traced_pool_call(payload: dict) -> dict:
    """Shard task: the program's own task function, with spans returned."""
    REQUEST_ID.set("")
    t0 = time.perf_counter()
    out = _ORIGINAL_POOL_CALL(payload)
    t1 = time.perf_counter()
    out["perfbench"] = {"t0": t0, "t1": t1, "spans": SPANS.take()}
    return out


def _install_serve() -> None:
    global _ORIGINAL_POOL_CALL
    from repro.obs import MetricsRegistry
    from repro.serve import batcher, daemon, protocol, shards

    parse = daemon.parse_request

    def parse_request(line: str) -> Any:
        t0 = time.perf_counter()
        req = parse(line)
        t1 = time.perf_counter()
        if isinstance(req, protocol.ControlRequest):
            if req.id.startswith(MARK_PREFIX):
                MARKS.append((req.id, t1, time.thread_time()))
        else:
            REQUEST_ID.set(req.id)
        SPANS.add("serve.protocol.parse", t0, t1, current_parent(), REQUEST_ID.get())
        return req

    daemon.parse_request = parse_request
    _patch(daemon, "load_factor", "serve.admit.load_factor")
    _patch(batcher.AdmissionController, "try_admit", "serve.admit.try_admit")
    _patch(MetricsRegistry, "merge", "obs.metrics.merge")
    _patch(protocol.RouteResponse, "as_dict", "serve.serialize.as_dict")

    class _Json:
        loads = staticmethod(daemon.json.loads)
        dumps = staticmethod(SPANS.wrap("serve.serialize.dumps", daemon.json.dumps))

    daemon.json = _Json
    _patch(daemon, "FatTree", "setup.tree")

    add, drain = batcher.RequestBatcher.add, batcher.RequestBatcher.drain

    def traced_add(self: Any, pending: Any) -> Any:
        _ADDED[id(pending)] = time.perf_counter()
        return add(self, pending)

    def traced_drain(self: Any, key: tuple) -> Any:
        group = drain(self, key)
        now = time.perf_counter()
        for p in group:
            WINDOW_WAITS.append((now, now - _ADDED.pop(id(p), now)))
        return group

    batcher.RequestBatcher.add = traced_add
    batcher.RequestBatcher.drain = traced_drain

    submit = shards.ShardPool.submit

    def traced_submit(self: Any, payload: dict) -> Any:
        t0 = time.perf_counter()
        parent, rid = current_parent(), REQUEST_ID.get()
        fut = submit(self, payload)

        def done(f: Any) -> None:
            t1 = time.perf_counter()
            sid = SPANS.add("serve.shards.submit", t0, t1, parent, rid)
            if f.cancelled() or f.exception() is not None:
                return
            extra = f.result().get("perfbench")
            worker_s = 0.0
            if extra is not None:
                worker_s = extra["t1"] - extra["t0"]
                SPANS.extend(
                    (s[0], s[1], s[2], s[3], sid if s[4] < 0 else s[4], rid)
                    for s in extra["spans"]
                )
            SUBMITS.append((t1, t1 - t0, worker_s))

        fut.add_done_callback(done)
        return fut

    shards.ShardPool.submit = traced_submit
    _ORIGINAL_POOL_CALL = shards._pool_call
    shards._pool_call = traced_pool_call
    _patch(shards, "run_shard_batch", "serve.shards.batch")


def _install_library() -> None:
    import repro.perf
    from repro.chaos import engine
    from repro.core import load, partition, reuse_scheduler, schedule, scheduler
    from repro.perf import batch, pathindex, shm

    _patch(batch, "batch_schedule", "perf.batch")
    _patch(pathindex.PathIndex, "__init__", "perf.pathindex.build")
    _patch(pathindex.PathIndex, "invalidate_channels", "perf.pathindex.invalidate")
    for owner in (repro.perf, engine, shm):
        _patch(owner, "get_path_index", "perf.pathindex.lookup")
    _patch(shm.SharedPathIndexArena, "publish", "perf.shm.publish")
    _patch(scheduler, "partition_group", "core.partition.partition_group")
    _patch(scheduler, "even_split_indices", "core.partition.even_split_indices")
    _patch(partition, "even_split_indices", "core.partition.even_split_indices")
    _patch(reuse_scheduler, "even_split_all", "core.partition.even_split_all")
    _patch(scheduler, "channel_loads", "core.load.channel_loads")
    _patch(reuse_scheduler, "channel_loads", "core.load.channel_loads")
    _patch(load.LevelLoads, "apply_delta", "core.load.apply_delta")
    _patch(schedule.Schedule, "validate", "core.schedule.validate")


def install() -> Spans:
    """Install every hook once; returns the process's span buffer."""
    _install_serve()
    _install_library()
    return SPANS
