"""Baseline schedulers for comparison with Theorem 1 / Corollary 2.

Neither of these is from the paper; they are the obvious strawmen a
practitioner would try first, used by the benches as ablation baselines
for the even-split partitioner:

* :func:`schedule_greedy_first_fit` — off-line first-fit bin packing:
  place each message in the earliest delivery cycle with residual
  capacity on its whole path.
* :func:`simulate_online_retry` — the on-line retry loop sketched in §II:
  every pending message attempts delivery each cycle; congested channels
  drop the excess; dropped messages are retried next cycle (the
  acknowledgment mechanism).  Randomised priority, so results vary with
  the seed.

Both route over the shared :class:`~repro.perf.PathIndex`.
:func:`schedule_greedy_first_fit` is a batch of one: it runs the single
greedy driver of :mod:`repro.perf.batch` (the driver
:func:`~repro.perf.batch_schedule` runs for B sets) on a one-set batch.
Placement is resolved by :func:`repro.perf.firstfit.first_fit_assign`,
which picks the wave or scan engine from each set's overload ratio —
whole-array passes instead of a numpy round-trip per message, which is
what made the tier-1 kernel *slower* than pure Python at small ``n``.
The per-level dict-of-arrays bookkeeping is retained in
:func:`_reference_schedule_greedy_first_fit` as the equality oracle
(identical placements for every input and order).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..chaos.engine import ChaosController
    from ..obs import Obs

from .errors import DeliveryTimeout, UnroutableError
from .fattree import Direction, FatTree
from .message import MessageSet
from .schedule import Schedule
from .tree import path_up_down

__all__ = [
    "schedule_greedy_first_fit",
    "simulate_online_retry",
    "_reference_schedule_greedy_first_fit",
]


def _placement_order(ft: FatTree, routable: MessageSet, order: str) -> np.ndarray:
    m = len(routable)
    if order == "given":
        return np.arange(m)
    if order == "random":
        return np.random.default_rng(0).permutation(m)
    if order == "longest-first":
        lengths = np.array(
            [ft.path_length(int(s), int(d)) for s, d in routable],
            dtype=np.int64,
        )
        return np.argsort(-lengths, kind="stable")
    raise ValueError(f"unknown order {order!r}")


def schedule_greedy_first_fit(
    ft: FatTree,
    messages: MessageSet,
    *,
    order: str = "longest-first",
    obs: Obs | None = None,
) -> Schedule:
    """Off-line first-fit scheduler.

    ``order`` controls message placement order: ``"longest-first"`` (by
    path length, a standard bin-packing heuristic), ``"given"`` (input
    order), or ``"random"``.

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives a kernel wall-time
    span, per-cycle ``cycle`` trace events (off-line placement: nothing
    is ever congested or deferred) and per-level utilisation histograms.

    A solo call is a batch of one: it runs the greedy driver of
    :mod:`repro.perf.batch` on a one-set batch.  The result is
    bit-identical, for every input and order, to
    :func:`_reference_schedule_greedy_first_fit`.
    """
    from ..obs import resolve_obs
    from ..perf.batch import _greedy_sets

    return _greedy_sets(ft, [messages], order, resolve_obs(obs), solo=True)[0]


class _ResidualCycles:
    """Residual up/down capacities for a growing list of delivery cycles
    (the pre-vectorisation bookkeeping, kept for the reference oracle)."""

    def __init__(self, ft: FatTree):
        self.ft = ft
        self.up: list[dict[int, np.ndarray]] = []
        self.down: list[dict[int, np.ndarray]] = []

    def _new_cycle(self) -> int:
        caps_up = {
            k: self.ft.cap_vector(k, Direction.UP).copy()
            for k in range(1, self.ft.depth + 1)
        }
        caps_down = {
            k: self.ft.cap_vector(k, Direction.DOWN).copy()
            for k in range(1, self.ft.depth + 1)
        }
        self.up.append(caps_up)
        self.down.append(caps_down)
        return len(self.up) - 1

    def fits(self, t: int, ups, downs) -> bool:
        up_t, down_t = self.up[t], self.down[t]
        return all(up_t[k][x] > 0 for k, x in ups) and all(
            down_t[k][x] > 0 for k, x in downs
        )

    def commit(self, t: int, ups, downs) -> None:
        for k, x in ups:
            self.up[t][k][x] -= 1
        for k, x in downs:
            self.down[t][k][x] -= 1

    def place_first_fit(self, ups, downs) -> int:
        for t in range(len(self.up)):
            if self.fits(t, ups, downs):
                self.commit(t, ups, downs)
                return t
        t = self._new_cycle()
        self.commit(t, ups, downs)
        return t


def _reference_schedule_greedy_first_fit(
    ft: FatTree, messages: MessageSet, *, order: str = "longest-first"
) -> Schedule:
    """Pure-Python first-fit, kept as the equality oracle for the
    vectorised :func:`schedule_greedy_first_fit` (identical placements,
    hence identical schedules, for every input and order)."""
    routable = messages.without_self_messages()
    mask = ft.routable_mask(routable)
    if not mask.all():
        raise UnroutableError(routable.take(~mask).as_pairs())
    n_self = len(messages) - len(routable)
    m = len(routable)
    perm = _placement_order(ft, routable, order)

    residual = _ResidualCycles(ft)
    assignment = np.zeros(m, dtype=np.int64)
    for i in perm:
        src, dst = int(routable.src[i]), int(routable.dst[i])
        ups, downs = path_up_down(src, dst, ft.depth)
        assignment[i] = residual.place_first_fit(ups, downs)

    num_cycles = len(residual.up)
    cycles = [routable.take(assignment == t) for t in range(num_cycles)]
    return Schedule(cycles=cycles, n_self_messages=n_self)


def simulate_online_retry(
    ft: FatTree,
    messages: MessageSet,
    *,
    seed: int = 0,
    max_cycles: int = 100_000,
    obs: Obs | None = None,
    chaos: ChaosController | None = None,
) -> Schedule:
    """On-line delivery with congestion drops and retry (§II mechanism).

    Each cycle, pending messages are considered in random order; a message
    is delivered iff every channel on its path still has residual
    capacity this cycle.  Messages that lose a channel are retried in the
    next cycle.  Models ideal concentrators (no drops without congestion)
    and instant acknowledgments.

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives per-cycle ``cycle``
    trace events (losers count as congested), retry counters,
    utilisation histograms and a kernel wall-time span.  Exhausting
    ``max_cycles`` with messages pending raises
    :class:`~repro.core.errors.DeliveryTimeout` carrying the pending
    pairs and their attempt histogram.

    ``chaos`` attaches a :class:`~repro.chaos.ChaosController`: its
    timeline mutates the tree between cycles, severed messages park
    until their scheduled repair (or drop, with accounting), open
    circuit breakers defer traffic without an attempt, and the returned
    schedule carries per-cycle :class:`~repro.core.CycleStats`.  With
    ``chaos=None`` or an empty timeline the RNG shuffle sequence is
    untouched, so the schedule is bit-identical to a healthy run.
    """
    from ..obs import resolve_obs
    from ..perf import get_path_index
    from .online import _level_capacity_totals, _record_cycle

    obs = resolve_obs(obs)
    rng = np.random.default_rng(seed)
    routable = messages.without_self_messages()
    index = get_path_index(ft, routable, obs=obs)
    mask = index.routable_mask()
    if chaos is None and not mask.all():
        raise UnroutableError(routable.take(~mask).as_pairs())
    n_self = len(messages) - len(routable)
    m = len(routable)
    pending = list(range(m))
    attempts = np.zeros(m, dtype=np.int64)
    parked: dict[int, int] = {}
    paths = index.paths
    fresh = index.caps
    cycles: list[MessageSet] = []
    tracing = obs.enabled
    if tracing:
        level_cap_totals = _level_capacity_totals(ft)
    with obs.kernel("simulate_online_retry", n=ft.n, m=m, seed=seed):
        while pending or parked:
            t = len(cycles)
            if t >= max_cycles:
                rows = np.asarray(sorted(pending + list(parked)), dtype=np.int64)
                raise DeliveryTimeout(
                    routable.take(rows).as_pairs(),
                    t,
                    Counter(attempts[rows].tolist()),
                )
            dropped_now = 0
            blocked_set: set[int] = set()
            if chaos is not None:
                in_flight = len(pending) + len(parked)
                index = chaos.begin_cycle(t, index)
                paths = index.paths
                fresh = index.caps
                pm = np.zeros(m, dtype=bool)
                if pending:
                    pm[np.asarray(pending, dtype=np.int64)] = True
                if parked:
                    pm[np.asarray(list(parked), dtype=np.int64)] = True
                severed = chaos.severed_rows(index, pm)
                if severed.size:
                    drops, park = chaos.resolve_severed(
                        index, severed, t, routable, attempts
                    )
                    moved = set(drops) | set(park)
                    if moved:
                        pending = [i for i in pending if i not in moved]
                    for i in drops:
                        parked.pop(i, None)
                    dropped_now = len(drops)
                    parked.update(park)
                due = sorted(i for i, heal_at in parked.items() if heal_at <= t)
                for i in due:
                    del parked[i]
                pending.extend(due)
                if not pending and not parked:
                    cycles.append(MessageSet.empty(ft.n))
                    chaos.record(
                        in_flight=in_flight,
                        delivered=0,
                        congested=0,
                        retried=0,
                        deferred=0,
                        dropped=dropped_now,
                    )
                    break
            residual = fresh.copy()
            rng.shuffle(pending)
            if chaos is not None and pending:
                arr = np.asarray(pending, dtype=np.int64)
                bmask = chaos.breaker_blocked(index, arr, t)
                if bmask.any():
                    blocked_set = set(arr[bmask].tolist())
            delivered: list[int] = []
            still: list[int] = []
            deferred_ids: list[int] = []
            for i in pending:
                if i in blocked_set:
                    deferred_ids.append(i)
                    continue
                path = paths[i]
                if (residual[path] > 0).all():
                    residual[path] -= 1
                    delivered.append(i)
                else:
                    still.append(i)
            attempted = delivered + still
            if attempted:
                attempts[np.asarray(attempted, dtype=np.int64)] += 1
            delivered_idx = np.array(sorted(delivered), dtype=np.int64)
            cycles.append(routable.take(delivered_idx))
            if tracing:
                _record_cycle(
                    obs,
                    "online_retry",
                    len(cycles) - 1,
                    delivered=len(delivered),
                    congested=len(still),
                    deferred=len(deferred_ids) + len(parked),
                    index=index,
                    delivered_idx=delivered_idx,
                    level_cap_totals=level_cap_totals,
                )
            if chaos is not None:
                still_arr = np.asarray(still, dtype=np.int64)
                congested_now = int((attempts[still_arr] == 1).sum())
                chaos.note_outcomes(index, delivered_idx, still_arr, t)
                chaos.record(
                    in_flight=in_flight,
                    delivered=len(delivered),
                    congested=congested_now,
                    retried=len(still) - congested_now,
                    deferred=len(deferred_ids) + len(parked),
                    dropped=dropped_now,
                )
            pending = still + deferred_ids
    if chaos is None:
        return Schedule(cycles=cycles, n_self_messages=n_self)
    return Schedule(
        cycles=cycles,
        n_self_messages=n_self,
        cycle_stats=list(chaos.cycle_stats),
        dropped=chaos.dropped_messages(routable),
    )
