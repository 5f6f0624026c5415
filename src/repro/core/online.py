"""On-line routing: the direction the paper points at (§VI, ref. [8]).

    "In results to be reported elsewhere [Greenberg & Leiserson 1985] we
    have discovered a randomized routing algorithm that delivers all
    messages in O(λ(M) + lg n·lg lg n) delivery cycles with high
    probability."

The paper only *announces* this; this module implements the natural
random-rank contention-resolution scheme in that spirit and the benches
measure its cycle count against the announced ``λ + lg n·lg lg n``
shape:

Each delivery cycle, every pending message draws an independent uniform
rank.  Every channel grants its ``cap(c)`` wires to its lowest-ranked
contenders; a message is delivered iff it wins a wire on *every* channel
of its path (consistent ranks make the winner sets coherent down a
path).  Losers retry next cycle with fresh ranks — fully on-line: no
global knowledge, only per-channel comparisons, exactly what a switch
can do in hardware.

:func:`schedule_random_rank` is a batch of one: it runs the single
vectorised random-rank cycle loop of :mod:`repro.perf.batch` (the loop
:func:`~repro.perf.batch_schedule` runs for B sets) on a one-set batch
over the shared :class:`~repro.perf.PathIndex`.  Each cycle is one sort
of packed ``(channel gid, rank position)`` keys of the eligible
messages' path entries plus a grouped prefix count, with
delivered/backoff state in flat arrays.  The pure-Python predecessor is
retained as :func:`_reference_schedule_random_rank`; the two are
bit-identical for any seed (property-tested), so every published cycle
count is unchanged.

Degraded-mode extensions (:mod:`repro.faults`): capacities are read per
channel, so a :class:`~repro.faults.DegradedFatTree` is routed against
its surviving wires; messages whose path is severed raise
:class:`~repro.core.errors.UnroutableError` up front.  A positive
``loss_rate`` (taken from the tree's fault model when not given)
corrupts each would-be delivery independently; corrupted and congested
messages are NACKed and re-injected after a capped binary exponential
backoff.  Exhausting ``max_cycles`` — or reaching a state from which it
*must* be exhausted: every pending message backed off past the remaining
cycle budget, or a cycle that cannot make progress — raises a structured
:class:`~repro.core.errors.DeliveryTimeout` carrying the backoff
(attempt-count) histogram instead of looping forever.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..chaos.engine import ChaosController
    from ..faults.backoff import BackoffPolicy
    from ..obs import Obs
    from ..perf import PathIndex
    from ._types import IntArray

from .errors import DeliveryTimeout, UnroutableError
from .fattree import Direction, FatTree
from .message import MessageSet
from .schedule import Schedule
from .tree import path_channel_keys

__all__ = [
    "schedule_random_rank",
    "online_cycle_bound",
    "_reference_schedule_random_rank",
]


def online_cycle_bound(ft: FatTree, lam: float, constant: float = 8.0) -> float:
    """The announced high-probability shape: c·(λ(M) + lg n·lg lg n)."""
    lg = max(1.0, ft.depth)
    return constant * (max(lam, 1.0) + lg * max(1.0, math.log2(lg)))


def _validate_args(
    ft: FatTree, messages: MessageSet, loss_rate: float | None, max_backoff: int
) -> float:
    if messages.n != ft.n:
        raise ValueError("message set and fat-tree disagree on n")
    if loss_rate is None:
        model = getattr(ft, "faults", None)
        loss_rate = model.loss_rate if model is not None else 0.0
    if not (0.0 <= loss_rate < 1.0):
        raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
    if max_backoff < 1:
        raise ValueError("max_backoff must be >= 1")
    return loss_rate


def schedule_random_rank(
    ft: FatTree,
    messages: MessageSet,
    *,
    seed: int = 0,
    max_cycles: int = 100_000,
    loss_rate: float | None = None,
    max_backoff: int = 16,
    backoff: BackoffPolicy | None = None,
    obs: Obs | None = None,
    chaos: ChaosController | None = None,
) -> Schedule:
    """Deliver ``messages`` with random-rank on-line contention
    resolution; returns the per-cycle delivery trace as a
    :class:`Schedule` (each cycle is a valid one-cycle set by
    construction).

    ``loss_rate`` is the per-delivery-attempt corruption probability
    (``None`` reads the tree's fault model, defaulting to 0).  A
    corrupted or congested message backs off for a uniformly random
    number of cycles within a window that doubles per failed attempt,
    capped at ``max_backoff`` — cycles where every pending message is
    backing off appear as empty delivery cycles in the schedule.  Raises
    :class:`DeliveryTimeout` (with the attempt histogram) when
    ``max_cycles`` delivery cycles pass with messages still pending, or
    as soon as every pending message has backed off past the remaining
    cycle budget.

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives one ``cycle`` trace
    event per delivery cycle whose delivered / congested / deferred
    counts partition the then-pending messages, per-level channel
    utilisation histograms, retry counters and a kernel wall-time span.
    Instrumentation never touches the RNG, so traced and untraced runs
    produce bit-identical schedules.

    ``backoff`` replaces the built-in retry constants with an explicit
    :class:`~repro.faults.BackoffPolicy`; the default policy
    (``BackoffPolicy(base=1, cap=max_backoff)`` with no jitter seed)
    reproduces the historic behaviour bit for bit.  ``chaos`` attaches
    a :class:`~repro.chaos.ChaosController` whose timeline mutates the
    tree between cycles; the loop then parks or drops severed messages,
    defers traffic behind open circuit breakers, and records per-cycle
    :class:`~repro.core.CycleStats`.  With ``chaos=None`` (or an empty
    timeline) the RNG draw sequence is untouched, so the schedule is
    bit-identical to a healthy run.

    A solo call is a batch of one: it runs the random-rank cycle loop
    of :mod:`repro.perf.batch` on a one-set batch.  The result is
    bit-identical, seed for seed, to
    :func:`_reference_schedule_random_rank`.
    """
    from ..obs import resolve_obs
    from ..perf.batch import _random_rank_sets

    return _random_rank_sets(
        ft,
        [messages],
        seed=seed,
        max_cycles=max_cycles,
        loss_rate=loss_rate,
        max_backoff=max_backoff,
        backoff=backoff,
        obs=resolve_obs(obs),
        chaos=chaos,
        solo=True,
    )[0]


def _level_capacity_totals(ft: FatTree) -> list[tuple[int, int]]:
    """Per-level ``(up, down)`` total wire counts, for utilisation."""
    return [
        (
            int(ft.cap_vector(k, Direction.UP).sum()),
            int(ft.cap_vector(k, Direction.DOWN).sum()),
        )
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
    level_cap_totals: list[tuple[int, int]] | None = None,
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
            up_total, down_total = level_cap_totals[k]
            if up_total:
                obs.metrics.observe(
                    "channel.utilization",
                    float(loads[k, 0]) / up_total,
                    level=k,
                    direction="up",
                    scheduler=scheduler,
                )
            if down_total:
                obs.metrics.observe(
                    "channel.utilization",
                    float(loads[k, 1]) / down_total,
                    level=k,
                    direction="down",
                    scheduler=scheduler,
                )


def _reference_schedule_random_rank(
    ft: FatTree,
    messages: MessageSet,
    *,
    seed: int = 0,
    max_cycles: int = 100_000,
    loss_rate: float | None = None,
    max_backoff: int = 16,
    backoff: BackoffPolicy | None = None,
) -> Schedule:
    """Pure-Python random-rank router, kept as the equality oracle for
    the vectorised :func:`schedule_random_rank` (identical semantics,
    identical RNG consumption, identical schedules for any seed)."""
    from ..faults.backoff import BackoffPolicy

    loss_rate = _validate_args(ft, messages, loss_rate, max_backoff)
    policy = backoff if backoff is not None else BackoffPolicy(base=1, cap=max_backoff)
    rng = np.random.default_rng(seed)
    jrng = policy.jitter_rng(rng)
    routable = messages.without_self_messages()
    mask = ft.routable_mask(routable)
    if not mask.all():
        raise UnroutableError(routable.take(~mask).as_pairs())
    n_self = len(messages) - len(routable)
    depth = ft.depth
    paths = [
        path_channel_keys(int(s), int(d), depth) for s, d in routable
    ]
    directions = (Direction.UP, Direction.DOWN)
    caps = {
        key: ft.chan_cap(key[0], key[1], directions[key[2]])
        for path in paths
        for key in path
    }
    m = len(routable)
    attempts = [0] * m
    next_try = [0] * m
    pending = list(range(m))
    cycles: list[MessageSet] = []

    def _timeout(t: int) -> DeliveryTimeout:
        pairs = routable.as_pairs()
        return DeliveryTimeout(
            [pairs[i] for i in pending],
            t,
            Counter(attempts[i] for i in pending),
        )

    while pending:
        t = len(cycles)
        if t >= max_cycles:
            raise _timeout(t)
        eligible = [i for i in pending if next_try[i] <= t]
        if not eligible:
            if min(next_try[i] for i in pending) >= max_cycles:
                raise _timeout(t)
            cycles.append(MessageSet.empty(ft.n))  # everyone backing off
            continue
        for i in eligible:
            attempts[i] += 1
        ranks = rng.random(len(eligible))
        # per-channel grant: lowest cap(c) ranks win each channel
        contenders: dict[tuple[int, int, int], list[tuple[float, int]]] = {}
        for pos, i in enumerate(eligible):
            for key in paths[i]:
                contenders.setdefault(key, []).append((ranks[pos], pos))
        winners_per_channel: dict[tuple[int, int, int], set[int]] = {}
        for key, lst in contenders.items():
            lst.sort()
            winners_per_channel[key] = {p for _, p in lst[: caps[key]]}
        delivered = [
            pos
            for pos, i in enumerate(eligible)
            if all(pos in winners_per_channel[key] for key in paths[i])
        ]
        if loss_rate:
            survived = rng.random(len(delivered)) >= loss_rate
            delivered = [p for p, ok in zip(delivered, survived) if ok]
        elif not delivered:
            raise _timeout(t)
        delivered_set = {eligible[p] for p in delivered}
        cycles.append(
            routable.take(np.array(sorted(delivered_set), dtype=np.int64))
        )
        for i in eligible:
            if i not in delivered_set:
                if loss_rate:
                    window = policy.window(attempts[i])
                    next_try[i] = t + 1 + int(jrng.integers(0, window))
                else:
                    next_try[i] = t + 1  # pure contention: retry immediately

        pending = [i for i in pending if i not in delivered_set]
    return Schedule(cycles=cycles, n_self_messages=n_self)
