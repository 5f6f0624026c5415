"""Batched scheduling: B message sets against one tree in one 3-D pass.

This module holds the one random-rank kernel — its batched grant sort,
run as the arbitration step of the delivery-cycle driver
(:mod:`repro.perf.driver`) — and the one greedy first-fit driver of the
package.  A solo call — :func:`~repro.core.online.schedule_random_rank`
or :func:`~repro.core.greedy.schedule_greedy_first_fit` — is a batch of
one, under its own span and scheduler label.

Scheduling *many small message sets against the same fat-tree* (what
``repro.serve`` does) one set at a time pays the fixed costs B times
over: a :class:`~repro.perf.PathIndex` cache probe (or build) per set,
a kernel dispatch per set, and — for the on-line kernel — one sort per
set per cycle over a tiny entry array.  :func:`batch_schedule`
amortises all three with a *channel-offset embedding*.  The B sets'
path matrices are stacked into one ``(Σ m_b, 2·depth)`` gid matrix
whose rows for set ``b`` are shifted by ``b · num_slots``, and the
capacity vector is tiled B times.  Under this embedding the sets occupy
pairwise-disjoint channel ranges, so

* one :func:`repro.perf.firstfit.first_fit_assign` call packs all B
  first-fit problems at once (set ``b``'s greedy packing of any cycle
  only ever meets set ``b``'s own channels — the combined run is the
  B independent runs, interleaved), and
* one sort per *global* cycle resolves every set's random-rank channel
  grants (each offset-gid group is wholly within one set, with the
  same contenders, the same ranks from that set's own seeded stream,
  and the same tie-break order as a one-set run's group).

Bit-parity contract: :func:`batch_schedule` is **bit-identical to B
independent solo calls** on healthy *and*
:class:`~repro.faults.DegradedFatTree` trees, for every kernel, order,
and seed.  The serial loop is retained as
:func:`_reference_batch_schedule`, the paired equality oracle, which the
``batched:*`` fuzz family (:mod:`repro.verify`) cross-checks on every
run; the pure-Python ``_reference_*`` oracles of :mod:`repro.core.online`
and :mod:`repro.core.greedy` hold the shared loops to the paper-level
semantics.

RNG discipline: the on-line path holds one ``default_rng(seed)`` stream
*per set*, consumed in exactly the positions a one-set run consumes its
single stream — draws for different sets come from different streams,
so the interleaving introduced by the shared cycle loop cannot perturb
any set's sequence.

Chaos (a :class:`~repro.chaos.ChaosController` passed by
:func:`~repro.core.online.schedule_random_rank`) is run by the driver;
it is allowed with one set only, because one controller owns one
mutable tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..chaos.engine import ChaosController
    from ..core.fattree import FatTree
    from ..faults.backoff import BackoffPolicy
    from ..obs import Obs
    from .pathindex import PathIndex

from ..core.errors import UnroutableError
from ..core.message import MessageSet
from ..core.schedule import Schedule

__all__ = ["batch_schedule", "_reference_batch_schedule"]

_KERNELS = ("greedy", "random_rank")


def _combined_index(
    ft: FatTree,
    message_sets: list[MessageSet],
    obs: "Obs | None",
    *,
    strict: bool = True,
) -> "tuple[list[MessageSet], MessageSet, PathIndex, np.ndarray]":
    """One PathIndex over the concatenation of all routable sets.

    Paths depend only on (src, dst, depth), so the concatenated index's
    row block for set ``b`` equals set ``b``'s own index rows — one
    build (and one cache slot) replaces B.  Returns the per-set
    routable sets, their concatenation, the combined index, and the
    row offset of each set.
    With ``strict`` the first set (in input order) holding a message
    that crosses a dead channel raises :class:`UnroutableError`.
    """
    from . import get_path_index

    routables = [ms.without_self_messages() for ms in message_sets]
    sizes = [len(r) for r in routables]
    offsets = np.zeros(len(routables) + 1, dtype=np.int64)
    np.cumsum(np.asarray(sizes, dtype=np.int64), out=offsets[1:])
    if len(routables) == 1:
        combined = routables[0]
    else:
        combined = MessageSet(
            np.concatenate([r.src for r in routables]),
            np.concatenate([r.dst for r in routables]),
            ft.n,
        )
    index = get_path_index(ft, combined, obs=obs)
    if strict:
        mask = index.routable_mask()
        if not mask.all():
            for b, r in enumerate(routables):
                bad = ~mask[offsets[b] : offsets[b + 1]]
                if bad.any():
                    raise UnroutableError(r.take(bad).as_pairs())
    return routables, combined, index, offsets


def _embedded(
    index: PathIndex, num_sets: int, set_of_row: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The offset embedding: paths shifted into per-set channel ranges
    ``[b·num_slots, (b+1)·num_slots)`` and the capacities tiled to match.

    Pads (gid 0) land on ``b·num_slots``, whose tiled capacity is the
    pad cap: they never bind.  One set needs no shift at all.
    """
    if num_sets == 1:
        return index.paths, index.caps
    shift = (set_of_row * index.num_slots)[:, np.newaxis]
    return index.paths + shift, np.tile(index.caps, num_sets)


def _greedy_sets(
    ft: FatTree,
    message_sets: list[MessageSet],
    order: str,
    obs: Obs,
    *,
    solo: bool,
) -> list[Schedule]:
    """The greedy first-fit driver: one :class:`Schedule` per set.

    ``solo`` selects the one-set call's span and scheduler label
    (``schedule_greedy_first_fit`` / ``greedy_first_fit``) instead of
    the batch's (``batch_schedule`` / ``batch_greedy_first_fit``).
    """
    from ..core.greedy import _placement_order
    from .driver import _level_capacity_totals, _record_cycle
    from .firstfit import first_fit_assign

    routables, _, index, offsets = _combined_index(ft, message_sets, obs)
    B = len(routables)
    total_m = int(offsets[-1])

    set_of_row = np.repeat(np.arange(B, dtype=np.int64), np.diff(offsets))
    # per-set placement orders, batched (identical to one-set runs):
    # ``global_perm`` lists combined row indices in processing order,
    # set blocks contiguous and ascending
    if order == "longest-first" and total_m:
        # one stable argsort over (set, -length) orders every set by
        # descending path length: the set term dominates, and within a
        # set ties keep input order
        max_len = np.int64(int(index.path_len.max()) + 1)
        key = set_of_row * max_len + (max_len - 1 - index.path_len)
        global_perm = np.argsort(key, kind="stable")
    elif order == "random":
        # each set re-seeds default_rng(0), as a one-set run does
        global_perm = np.concatenate(
            [
                np.asarray(offsets[b], dtype=np.int64)
                + _placement_order(ft, r, order)
                for b, r in enumerate(routables)
            ]
            or [np.zeros(0, dtype=np.int64)]
        )
    else:
        if order not in ("given", "longest-first"):
            _placement_order(ft, MessageSet.empty(ft.n), order)  # raises
        global_perm = np.arange(total_m, dtype=np.int64)

    if solo:
        span = obs.kernel(
            "schedule_greedy_first_fit", n=ft.n, m=total_m, order=order
        )
        label = "greedy_first_fit"
    else:
        span = obs.kernel("batch_schedule", n=ft.n, b=B, m=total_m, engine="greedy")
        label = "batch_greedy_first_fit"
    with span:
        packed = np.zeros(total_m, dtype=np.int64)
        if total_m:
            # the sets are channel-disjoint: the engine chooses each
            # set's strategy from that set's own overload ratio
            paths, caps = _embedded(index, B, set_of_row)
            packed, _ = first_fit_assign(paths[global_perm], caps, num_sets=B)

    schedules: list[Schedule] = []
    tracing = obs.enabled
    if tracing:
        level_cap_totals = _level_capacity_totals(ft)
    for b, r in enumerate(routables):
        lo, hi = int(offsets[b]), int(offsets[b + 1])
        m_b = hi - lo
        assignment = np.zeros(m_b, dtype=np.int64)
        assignment[global_perm[lo:hi] - lo] = packed[lo:hi]
        # every cycle of a set's packing is non-empty
        num_cycles = int(assignment.max()) + 1 if m_b else 0
        cycles = [r.take(assignment == t) for t in range(num_cycles)]
        if tracing:
            for t in range(num_cycles):
                _record_cycle(
                    obs,
                    label,
                    t,
                    delivered=len(cycles[t]),
                    congested=0,
                    deferred=0,
                    index=index,
                    delivered_idx=lo + np.flatnonzero(assignment == t),
                    level_cap_totals=level_cap_totals,
                )
        n_self = len(message_sets[b]) - m_b
        # returned to the caller in the per-set list; validated externally
        # by the conformance oracle (validating B times here would undo
        # the batching win)
        schedules.append(Schedule(cycles=cycles, n_self_messages=n_self))  # reprolint: ignore[schedule-hygiene]
    return schedules


def _random_rank_sets(
    ft: FatTree,
    message_sets: list[MessageSet],
    *,
    seed: int,
    max_cycles: int,
    loss_rate: float | None,
    max_backoff: int,
    backoff: BackoffPolicy | None,
    obs: Obs,
    chaos: ChaosController | None,
    solo: bool,
) -> list[Schedule]:
    """The random-rank kernel: one :class:`Schedule` per set.

    Runs the delivery-cycle driver with the batched grant sort as its
    arbitration step.  ``solo`` selects the one-set call's span and
    scheduler label (``schedule_random_rank`` / ``random_rank``)
    instead of the batch's (``batch_schedule`` / ``batch_random_rank``).
    ``chaos`` requires exactly one set.
    """
    from ..core.online import _validate_args
    from ..faults.backoff import BackoffPolicy
    from .driver import Grant, run_cycles

    if chaos is not None and len(message_sets) != 1:
        raise ValueError("a chaos run schedules exactly one message set")
    lr = 0.0
    for ms in message_sets:
        lr = _validate_args(ft, ms, loss_rate, max_backoff)
    policy = backoff if backoff is not None else BackoffPolicy(base=1, cap=max_backoff)
    routables, combined, index, offsets = _combined_index(
        ft, message_sets, obs, strict=chaos is None
    )
    B = len(routables)
    total_m = int(offsets[-1])
    # a grant key packs (offset gid, rank position) into one int64
    if (B * index.num_slots).bit_length() + total_m.bit_length() > 63:
        raise ValueError("batch too large for 64-bit grant keys")
    # each set draws from its own default_rng(seed) stream in exactly a
    # one-set run's positions — that is the bit-parity invariant
    rngs = [np.random.default_rng(seed) for _ in range(B)]
    set_of_row = np.repeat(np.arange(B, dtype=np.int64), np.diff(offsets))
    width = index.paths.shape[1]
    # one set routes on the driver's (possibly chaos-updated) index, a
    # batch on its fixed offset embedding
    embedded = None if B == 1 else _embedded(index, B, set_of_row)
    # key-sized work buffers, sized for every row eligible at once and
    # reused each cycle: fresh per-cycle temporaries are handed back to
    # the system on free and faulted in again the next cycle
    n_max = total_m * width
    kbuf, sgbuf, tbuf, pbuf = (np.empty(n_max, dtype=np.int64) for _ in range(4))
    ramp = np.arange(n_max, dtype=np.int64)

    def grant_sort(
        t: int, rows: np.ndarray, held: np.ndarray, lr: float, index: PathIndex
    ) -> Grant:
        if not rows.size:
            return Grant(rows, rows, bool(lr))
        paths, caps = (index.paths, index.caps) if embedded is None else embedded
        cnt = np.diff(np.searchsorted(rows, offsets))
        live = np.flatnonzero(cnt).tolist()
        # rows are sorted, so entries fall into contiguous ascending set
        # blocks; fill each block from its own rank stream
        ranks = np.empty(rows.size, dtype=np.float64)
        pos = 0
        for b in live:
            c = int(cnt[b])
            ranks[pos : pos + c] = rngs[b].random(c)
            pos += c
        # one sort resolves every channel grant at once.  Each path
        # entry's key packs (offset gid, rank position), where rank
        # position orders the eligible messages by (rank, arrival):
        # each gid group lies wholly within one set, holds that set's
        # contenders in tie-break order, and its first cap(c) entries
        # win a wire.  Equal keys (a message's pad entries) are
        # interchangeable, so the sort need not be stable.
        by_rank = np.argsort(ranks, kind="stable")
        rank_pos = np.empty(rows.size, dtype=np.int64)
        rank_pos[by_rank] = np.arange(rows.size, dtype=np.int64)
        shift = rows.size.bit_length()
        n = rows.size * width
        key = kbuf[:n]
        entries = key.reshape(rows.size, width)
        np.take(paths, rows, axis=0, out=entries, mode="clip")
        entries <<= shift
        entries |= rank_pos[:, np.newaxis]
        key.sort()
        sg = np.right_shift(key, shift, out=sgbuf[:n])
        seg = np.empty(n, dtype=bool)
        seg[0] = True
        np.not_equal(sg[1:], sg[:-1], out=seg[1:])
        # position within the gid group: index minus the group's start
        start = np.multiply(seg, ramp[:n], out=tbuf[:n])
        np.maximum.accumulate(start, out=start)
        pos_in_group = np.subtract(ramp[:n], start, out=pbuf[:n])
        won = pos_in_group < np.take(caps, sg, out=tbuf[:n], mode="clip")
        key &= (1 << shift) - 1  # back to rank positions
        wins = np.bincount(key[won], minlength=rows.size)
        delivered_mask = wins[rank_pos] == width  # won every channel
        if lr:
            # transient corruption: a won path can still deliver
            # garbage, which the destination NACKs.  Per-set survival
            # draws, in stream order after the ranks.
            base = 0
            for b in live:
                c = int(cnt[b])
                block = delivered_mask[base : base + c]
                k = int(block.sum())
                if k:
                    block[np.flatnonzero(block)] = rngs[b].random(k) >= lr
                base += c
        # ascending failed rows are each set's ascending local order,
        # the jitter draw order of a one-set run
        return Grant(rows[delivered_mask], rows[~delivered_mask], bool(lr))

    if solo:
        span = obs.kernel("schedule_random_rank", n=ft.n, m=total_m, seed=seed)
        label = "random_rank"
    else:
        span = obs.kernel(
            "batch_schedule", n=ft.n, b=B, m=total_m, engine="random_rank", seed=seed
        )
        label = "batch_random_rank"
    with span:
        cycle_rows, _ = run_cycles(
            ft,
            index,
            combined,
            offsets,
            grant_sort,
            max_cycles=max_cycles,
            obs=obs,
            label=label,
            loss_rate=lr,
            policy=policy,
            jitter_rngs=tuple(policy.jitter_rng(rng) for rng in rngs),
            chaos=chaos,
        )
    # returned per set; validated externally by the conformance oracle
    return [
        Schedule(  # reprolint: ignore[schedule-hygiene]
            cycles=[combined.take(rows) for rows in cycle_rows[b]],
            n_self_messages=len(message_sets[b]) - len(routables[b]),
            cycle_stats=[] if chaos is None else list(chaos.cycle_stats),
            dropped=None if chaos is None else chaos.dropped_messages(routables[b]),
        )
        for b in range(B)
    ]


def batch_schedule(
    ft: FatTree,
    message_sets: list[MessageSet],
    *,
    kernel: str = "greedy",
    order: str = "longest-first",
    seed: int = 0,
    max_cycles: int = 100_000,
    loss_rate: float | None = None,
    max_backoff: int = 16,
    obs: Obs | None = None,
) -> list[Schedule]:
    """Schedule B message sets against one tree in a single 3-D pass.

    ``kernel`` selects the scheduler: ``"greedy"`` (off-line first-fit,
    honouring ``order``) or ``"random_rank"`` (on-line contention
    resolution, honouring ``seed`` / ``max_cycles`` / ``loss_rate`` /
    ``max_backoff``).  Returns one :class:`Schedule` per input set, in
    order.

    Bit-parity contract: the result is **bit-identical to B independent
    calls** of the solo kernel
    (:func:`~repro.core.greedy.schedule_greedy_first_fit` resp.
    :func:`~repro.core.online.schedule_random_rank` with the same
    keyword arguments) on healthy and
    :class:`~repro.faults.DegradedFatTree` trees — the equality oracle
    is :func:`_reference_batch_schedule`, exactly that serial loop.
    Error behaviour matches too: the first set (in input order) whose
    messages are unroutable raises :class:`UnroutableError`, and the
    lowest-index set that times out raises its
    :class:`DeliveryTimeout`.

    The amortisation: one PathIndex build/cache-probe for all B sets
    (paths depend only on endpoints), one first-fit engine call — the
    B path matrices are stacked with per-set gid offsets into disjoint
    channel ranges of a tiled capacity vector — and, on-line, one
    sort per global cycle instead of one per set per cycle.

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives one ``batch_schedule``
    kernel span plus per-set per-cycle ``cycle`` events under the
    ``batch_greedy_first_fit`` / ``batch_random_rank`` scheduler labels;
    instrumentation never touches any RNG stream.
    """
    from ..obs import resolve_obs

    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {_KERNELS}")
    obs = resolve_obs(obs)
    if not message_sets:
        return []
    for ms in message_sets:
        if ms.n != ft.n:
            raise ValueError("message set and fat-tree disagree on n")
    if kernel == "greedy":
        return _greedy_sets(ft, message_sets, order, obs, solo=False)
    return _random_rank_sets(
        ft,
        message_sets,
        seed=seed,
        max_cycles=max_cycles,
        loss_rate=loss_rate,
        max_backoff=max_backoff,
        backoff=None,
        obs=obs,
        chaos=None,
        solo=False,
    )


def _reference_batch_schedule(
    ft: FatTree,
    message_sets: list[MessageSet],
    *,
    kernel: str = "greedy",
    order: str = "longest-first",
    seed: int = 0,
    max_cycles: int = 100_000,
    loss_rate: float | None = None,
    max_backoff: int = 16,
    obs: Obs | None = None,
) -> list[Schedule]:
    """Serial per-set loop, kept as the equality oracle for the batched
    :func:`batch_schedule` (identical placements and delivery traces,
    hence identical schedules, for every kernel, order and seed)."""
    from ..core.greedy import schedule_greedy_first_fit
    from ..core.online import schedule_random_rank
    from ..obs import resolve_obs

    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {_KERNELS}")
    obs = resolve_obs(obs)
    if kernel == "greedy":
        return [
            schedule_greedy_first_fit(ft, ms, order=order, obs=obs)
            for ms in message_sets
        ]
    return [
        schedule_random_rank(
            ft,
            ms,
            seed=seed,
            max_cycles=max_cycles,
            loss_rate=loss_rate,
            max_backoff=max_backoff,
            obs=obs,
        )
        for ms in message_sets
    ]
