"""In-memory spans for the traced benchmark runs.

A span is ``(id, name, start, end, parent, request_id)`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so the daemon, its
shard worker and the benchmark process share one time base).  The
current parent and request id travel in context variables, which gives
every asyncio task and every thread its own chain.

Spans are only recorded; :func:`layer_totals` reduces them to per-name
totals and self times (duration minus the time covered by direct
children) once the run is over.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from contextvars import ContextVar
from typing import Any, Callable

_PARENT: ContextVar[int] = ContextVar("perfbench_parent", default=-1)
REQUEST_ID: ContextVar[str] = ContextVar("perfbench_request_id", default="")


class Spans:
    """A process's span buffer.  ``take`` hands a forked child's spans over."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self._ids = itertools.count()
        self._pid = os.getpid()

    def _own(self) -> None:
        # a forked shard worker inherits the daemon's buffer: start clean
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.rows = []
            self._ids = itertools.count(os.getpid() << 32)

    def add(self, name: str, start: float, end: float,
            parent: int = -1, rid: str = "") -> int:
        self._own()
        sid = next(self._ids)
        self.rows.append((sid, name, start, end, parent, rid))
        return sid

    def take(self) -> list[tuple]:
        """Remove and return every recorded span."""
        self._own()
        rows, self.rows = self.rows, []
        return rows

    def extend(self, rows: list) -> None:
        self.rows.extend(tuple(r) for r in rows)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span per call, parented to the caller's span."""

        @functools.wraps(fn, updated=())
        def traced(*args: Any, **kwargs: Any) -> Any:
            self._own()
            sid = next(self._ids)
            parent = _PARENT.get()
            token = _PARENT.set(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _PARENT.reset(token)
                self.rows.append((sid, name, t0, t1, parent, REQUEST_ID.get()))

        return traced


def current_parent() -> int:
    return _PARENT.get()


def layer_totals(rows: list[tuple], t_from: float, t_to: float) -> dict[str, dict]:
    """Per span name: call count, total and self seconds within a window.

    A span counts when it starts inside ``[t_from, t_to]``.  Self time
    subtracts the durations of its direct children.
    """
    child_time: dict[int, float] = {}
    for sid, _name, t0, t1, parent, _rid in rows:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out: dict[str, dict] = {}
    for sid, name, t0, t1, _parent, _rid in rows:
        if not (t_from <= t0 <= t_to):
            continue
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
    return out


def children_with(rows: list[tuple], parent_name: str, child_name: str,
                  t_from: float, t_to: float) -> tuple[int, int]:
    """``(parents, parents having a direct child named child_name)``."""
    parents = {sid for sid, name, t0, _t1, _p, _r in rows
               if name == parent_name and t_from <= t0 <= t_to}
    with_child = {p for _sid, name, _t0, _t1, p, _r in rows
                  if name == child_name and p in parents}
    return len(parents), len(with_child)
