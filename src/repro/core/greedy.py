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
:func:`simulate_online_retry` supplies only its arbitration step —
shuffle, then first-fit against fresh capacities — to the shared
delivery-cycle driver (:mod:`repro.perf.driver`), which owns retries,
chaos hooks, timeouts and per-cycle accounting.
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

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..chaos.engine import ChaosController
    from ..obs import Obs
    from ..perf import PathIndex
    from ._types import IntArray

from .errors import UnroutableError
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
    utilisation histograms and a kernel wall-time span.  A run that
    exhausts ``max_cycles``, or provably must (every pending message
    parked past it), raises :class:`~repro.core.errors.DeliveryTimeout`
    carrying the pending pairs and their attempt histogram.

    ``chaos`` attaches a :class:`~repro.chaos.ChaosController`: its
    timeline mutates the tree between cycles, severed messages park
    until their scheduled repair (or drop, with accounting), open
    circuit breakers defer traffic without an attempt (the deferred
    messages still take their place in the shuffle), and the returned
    schedule carries per-cycle :class:`~repro.core.CycleStats`.  With
    ``chaos=None`` or an empty timeline the schedule is bit-identical
    to a healthy run.
    """
    from ..obs import resolve_obs
    from ..perf.batch import _combined_index
    from ..perf.driver import Grant, run_cycles

    obs = resolve_obs(obs)
    rng = np.random.default_rng(seed)
    (routable,), _, index, offsets = _combined_index(
        ft, [messages], obs, strict=chaos is None
    )
    m = len(routable)
    # the shuffle order carries over: last cycle's losers, then its
    # held rows; rows released from a park rejoin at the end, ascending
    carried: list[int] = []

    def shuffle_first_fit(
        t: int, rows: IntArray, held: IntArray, lr: float, index: PathIndex
    ) -> Grant:
        nonlocal carried
        order = rows.tolist()
        if held.size:
            order = sorted(order + held.tolist())
        if carried:
            live = set(order)
            kept = [i for i in carried if i in live]
            if len(kept) < len(order):
                seen = set(kept)
                kept += [i for i in order if i not in seen]
            order = kept
        # held rows are shuffled too: the stream ignores the breakers
        rng.shuffle(order)
        held_set = set(held.tolist())
        residual = index.caps.copy()
        paths = index.paths
        delivered: list[int] = []
        still: list[int] = []
        deferred: list[int] = []
        for i in order:
            if i in held_set:
                deferred.append(i)
                continue
            path = paths[i]
            if (residual[path] > 0).all():
                residual[path] -= 1
                delivered.append(i)
            else:
                still.append(i)
        carried = still + deferred
        return Grant(
            np.array(sorted(delivered), dtype=np.int64),
            np.asarray(still, dtype=np.int64),
            False,
        )

    with obs.kernel("simulate_online_retry", n=ft.n, m=m, seed=seed):
        (cycle_rows,), _ = run_cycles(
            ft,
            index,
            routable,
            offsets,
            shuffle_first_fit,
            max_cycles=max_cycles,
            obs=obs,
            label="online_retry",
            chaos=chaos,
        )
    cycles = [routable.take(rows) for rows in cycle_rows]
    n_self = len(messages) - m
    if chaos is None:
        return Schedule(cycles=cycles, n_self_messages=n_self)
    return Schedule(
        cycles=cycles,
        n_self_messages=n_self,
        cycle_stats=list(chaos.cycle_stats),
        dropped=chaos.dropped_messages(routable),
    )
