"""The delivery-cycle driver: the one retry loop of the on-line kernels.

§II's on-line mechanism is one loop — inject, arbitrate per channel,
acknowledge, retry the losers next delivery cycle — and
:func:`run_cycles` is it, for random-rank
(:func:`~repro.core.online.schedule_random_rank`,
:func:`~repro.perf.batch_schedule`), shuffle-first-fit
(:func:`~repro.core.greedy.simulate_online_retry`) and the switch model
(:func:`~repro.hardware.switchsim.run_until_delivered`).  The driver
owns the flat per-row state of one or more sets laid end to end, the
cycle budget and its early refusals (livelock, no progress), backoff
windows and jitter, the chaos hooks, empty cycles and the obs ``cycle``
events.  A policy supplies only its arbitration step,
``arbitrate(t, rows, held, loss_rate, index) -> Grant``, called once
per cycle: it resolves the cycle for the eligible ``rows`` (ascending,
possibly none); ``held`` are the rows an open breaker defers, which it
may look at but not inject.  Rows the grant names neither delivered
nor failed were never injected: they use no attempt and retry next
cycle.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from ..chaos.engine import ChaosController
    from ..core._types import IntArray
    from ..core.fattree import FatTree
    from ..faults.backoff import BackoffPolicy
    from ..obs import Obs
    from .pathindex import PathIndex

from ..core.errors import DeliveryTimeout
from ..core.fattree import Direction
from ..core.message import MessageSet

_EMPTY = np.zeros(0, dtype=np.int64)


class Grant(NamedTuple):
    """One arbitration step's outcome over its eligible rows."""

    #: rows that delivered, ascending
    delivered: np.ndarray
    #: injected rows that failed, in the order their backoff is drawn
    failed: np.ndarray
    #: whether failures back off (transient loss) or retry next cycle
    lossy: bool



def _level_capacity_totals(ft: FatTree) -> list[tuple[int, int]]:
    """Per-level ``(up, down)`` total wire counts, for utilisation."""
    up, down = Direction.UP, Direction.DOWN
    return [
        (int(ft.cap_vector(k, up).sum()), int(ft.cap_vector(k, down).sum()))
        for k in range(ft.depth + 1)
    ]


def _record_cycle(
    obs: Obs,
    scheduler: str,
    t: int,
    *,
    delivered: int,
    congested: int,
    deferred: int,
    index: PathIndex | None = None,
    delivered_idx: IntArray | None = None,
    level_cap_totals: Sequence[tuple[int, int]] = (),
) -> None:
    """Emit one delivery cycle's accounting: a ``cycle`` trace event
    whose counts partition the pending messages, the matching counters,
    and (when a path index is given) per-level utilisation histograms."""
    obs.tracer.emit(
        "cycle",
        scheduler=scheduler,
        t=t,
        delivered=delivered,
        congested=congested,
        deferred=deferred,
    )
    if delivered:
        obs.metrics.inc("messages.delivered", delivered, scheduler=scheduler)
    if congested:
        obs.metrics.inc("messages.congested", congested, scheduler=scheduler)
        obs.metrics.inc("messages.retried", congested, scheduler=scheduler)
    if deferred:
        obs.metrics.inc("messages.deferred", deferred, scheduler=scheduler)
    if index is not None and delivered_idx is not None and delivered:
        loads = index.level_loads(delivered_idx)
        for k in range(1, index.depth + 1):
            for col, direction in enumerate(("up", "down")):
                total = level_cap_totals[k][col]
                if total:
                    obs.metrics.observe(
                        "channel.utilization",
                        float(loads[k, col]) / total,
                        level=k,
                        direction=direction,
                        scheduler=scheduler,
                    )


def close_cycle(
    chaos: ChaosController,
    *,
    delivered: int,
    deferred: int,
    congested: int = 0,
    retried: int = 0,
) -> None:
    """Record (and check) the outcome partition of the cycle the
    controller's prologue opened, which counted the rows in flight and
    dropped.  ``deferred`` counts the rows still waiting, taken from the
    loop's own state, so the partition check catches a row the
    bookkeeping lost.  The store-and-forward and off-line executors
    record through here too."""
    in_flight, dropped = chaos._opened
    chaos.record(
        in_flight=in_flight,
        delivered=delivered,
        congested=congested,
        retried=retried,
        deferred=deferred,
        dropped=dropped,
    )


def run_cycles(
    ft: FatTree,
    index: PathIndex,
    messages: MessageSet,
    offsets: np.ndarray,
    arbitrate: Callable[[int, np.ndarray, np.ndarray, float, PathIndex], Grant],
    *,
    max_cycles: int,
    obs: Obs,
    label: str | None,
    loss_rate: float = 0.0,
    policy: BackoffPolicy | None = None,
    jitter_rngs: tuple[np.random.Generator, ...] = (),
    chaos: ChaosController | None = None,
) -> tuple[list[list[np.ndarray]], np.ndarray]:
    """Run delivery cycles until every row of every set is delivered.

    ``messages`` holds one ``(src, dst)`` per row of ``index``; set
    ``b`` owns rows ``offsets[b]:offsets[b + 1]``.  Returns each set's
    per-cycle delivered rows and the per-row attempt counts.  A set
    that exhausts ``max_cycles``, can no longer become eligible within
    it (livelock), or fails every attempt of a loss-free cycle (no
    progress) stops there; after the loop the lowest-index failing
    set's :class:`DeliveryTimeout` is raised, as a serial loop would.

    ``label`` names the scheduler of the obs ``cycle`` events (``None``:
    the step emits its own).  ``loss_rate`` is the base rate handed to
    the step, which a chaos timeline may override cycle by cycle; a
    lossy cycle's failures back off under ``policy`` with jitter from
    ``jitter_rngs[b]``, in the order the step lists them.  ``chaos``
    (one set only) attaches a controller.
    """
    B = int(offsets.size) - 1
    total_m = int(offsets[-1])
    set_of_row = np.repeat(np.arange(B, dtype=np.int64), np.diff(offsets))
    attempts = np.zeros(total_m, dtype=np.int64)
    next_try = np.zeros(total_m, dtype=np.int64)
    pending = np.ones(total_m, dtype=bool)
    n_pending = np.diff(offsets).astype(np.int64)
    cycle_rows: list[list[np.ndarray]] = [[] for _ in range(B)]
    failures: dict[int, DeliveryTimeout] = {}
    lr = loss_rate

    def _per_set(rows: np.ndarray) -> np.ndarray:
        # rows are ascending, so each set's count is the width of its
        # row range
        if B == 1:
            return np.array([rows.size], dtype=np.int64)
        return np.diff(np.searchsorted(rows, offsets))

    def _fail(b: int, t: int) -> None:
        # records the DeliveryTimeout set b raises at its cycle t, then
        # retires the set so the joint loop moves on
        sl = slice(int(offsets[b]), int(offsets[b + 1]))
        rows = np.flatnonzero(pending[sl]) + sl.start
        failures[b] = DeliveryTimeout(
            messages.take(rows).as_pairs(),
            t,
            Counter(attempts[rows].tolist()),
        )
        pending[sl] = False
        n_pending[b] = 0

    trace_label = label if obs.enabled else None
    level_cap_totals = [] if trace_label is None else _level_capacity_totals(ft)
    # every live set appends exactly one cycle per iteration, so the
    # iteration counter t equals each set's local cycle
    t = 0
    while n_pending.any():
        if t >= max_cycles:
            for b in np.flatnonzero(n_pending).tolist():
                _fail(b, t)
            break
        if chaos is not None:
            index, drops, park = chaos._prologue(t, index, pending, messages, attempts)
            for i, heal_at in park.items():
                next_try[i] = heal_at
            if drops:
                pending[np.asarray(drops, dtype=np.int64)] = False
                n_pending[0] -= len(drops)
            if n_pending[0] == 0:
                cycle_rows[0].append(_EMPTY)
                close_cycle(chaos, delivered=0, deferred=0)
                break
            lr = chaos.loss_rate(loss_rate)
        ready = np.flatnonzero(pending & (next_try <= t))
        rows, held = ready, _EMPTY
        if chaos is not None and ready.size:
            blocked = chaos.breaker_blocked(index, ready, t)
            if blocked.any():
                rows, held = ready[~blocked], ready[blocked]
        ready_cnt = _per_set(ready)
        stalled = np.flatnonzero((ready_cnt == 0) & (n_pending > 0)).tolist()
        for b in stalled:
            # every pending row of set b is backing off or parked: an
            # empty delivery cycle, unless none can come back in budget
            sl = slice(int(offsets[b]), int(offsets[b + 1]))
            if int(next_try[sl][pending[sl]].min()) >= max_cycles:
                _fail(b, t)  # livelock: no eligibility within budget

        grant = arbitrate(t, rows, held, lr, index)
        delivered, failed = grant.delivered, grant.failed
        attempts[delivered] += 1
        attempts[failed] += 1
        cnt = ready_cnt if rows is ready else _per_set(rows)
        dcnt = _per_set(delivered)
        if not grant.lossy:
            # with positive capacities some injected row always gets
            # through a loss-free cycle; a set that makes no progress
            # cannot make any
            for b in np.flatnonzero((cnt > 0) & (dcnt == 0)).tolist():
                _fail(b, t)
        bounds = np.cumsum(dcnt)
        # stalled sets' empty cycles first, then the rest, each ascending
        for b in stalled + np.flatnonzero(ready_cnt).tolist():
            if b in failures:
                continue
            hi = int(bounds[b])
            part = delivered[hi - int(dcnt[b]) : hi]
            cycle_rows[b].append(part)
            if trace_label is not None:
                _record_cycle(
                    obs,
                    trace_label,
                    t,
                    delivered=int(dcnt[b]),
                    congested=int(cnt[b] - dcnt[b]),
                    deferred=int(n_pending[b] - cnt[b]),
                    index=index,
                    delivered_idx=part,
                    level_cap_totals=level_cap_totals,
                )
        if grant.lossy:
            assert policy is not None, "a lossy arbitration step needs a backoff policy"
            for row in failed.tolist():
                b = int(set_of_row[row])
                if b in failures:
                    continue
                window = policy.window(int(attempts[row]))
                next_try[row] = t + 1 + int(jitter_rngs[b].integers(0, window))
        else:
            next_try[failed] = t + 1  # pure contention: retry next cycle
        pending[delivered] = False
        n_pending -= dcnt
        if chaos is not None and not failures:
            congested_now = int((attempts[failed] == 1).sum())
            chaos.note_outcomes(index, delivered, failed, t)
            close_cycle(
                chaos,
                delivered=int(delivered.size),
                deferred=int(np.count_nonzero(pending)) - int(failed.size),
                congested=congested_now,
                retried=int(failed.size) - congested_now,
            )
        t += 1

    if failures:
        raise failures[min(failures)]
    return cycle_rows, attempts
