"""Vectorised first-fit packing over packed-gid path rows (tier 2).

:func:`first_fit_assign` computes, for a sequence of messages in
*processing order*, the exact cycle each one lands in under sequential
first-fit bin packing — without the per-message Python loop that made
the tier-1 greedy kernel slower than its pure-Python oracle at small
``n`` (per-message numpy call overhead of ~20 µs dominated the actual
arithmetic).

Why it is exact
---------------
Sequential first-fit decomposes per cycle: message ``i`` lands in cycle
``t`` iff it is *rejected* by the greedy packings of all cycles
``< t`` and *accepted* by cycle ``t``'s packing, where each cycle's
packing considers its candidates in processing order against that
cycle's fresh capacities.  So the whole schedule is a sequence of
independent "waves": wave ``t`` packs the messages still unplaced after
wave ``t - 1``.

Each wave is resolved by **certainty-interval iteration**.  Maintain two
nested member sets per wave: ``lower`` (certain accepts) ⊆ ``upper =
lower ∪ uncertain``.  For a member set ``S``, ``fits(S)[i]`` asks: if
exactly the messages of ``S`` that precede ``i`` in processing order
were packed, would ``i`` still fit every channel of its path?  Since
``lower ⊆ upper`` implies the per-channel predecessor counts under
``lower`` are ≤ those under ``upper``:

* ``fits(upper)[i]`` true ⇒ ``i`` fits under any final outcome of the
  uncertain messages ⇒ certain accept;
* ``fits(lower)[i]`` false ⇒ ``i`` is blocked by certain accepts alone
  ⇒ certain reject.

The two conditions are mutually exclusive, and the *earliest* uncertain
message always resolves each round: all its predecessors are already
decided, so its predecessor counts under ``lower`` and ``upper``
coincide and one of the two tests must fire.  Each round therefore
decides ≥ 1 message — termination is guaranteed, no sequential
fallback is needed.

``fits(S)`` itself is a handful of whole-array passes: one *global*
stable argsort of all (message, gid) path occurrences by gid is done
once up front; within a gid group the stable sort preserves processing
order, so an exclusive running count of member occurrences per group
(cumsum minus the group-start baseline, recovered with a monotone
``maximum.accumulate`` trick) is exactly each occurrence's number of
packed predecessors on that channel.  An occurrence violates iff that
count reaches the channel capacity; a message fits iff it has no
violating occurrence (``bincount`` per message).  Padding gids resolve
for free: their capacity is large enough to never bind.

Between waves the occurrence arrays are compacted to the still-unplaced
messages, so later (cheaper) waves touch proportionally less data.

When channel demand is many times capacity, a sequential scan over
per-channel saturation bitmasks beats the waves (:func:`_first_fit_scan`).
:func:`first_fit_assign` owns that choice: it reads each set's overload
ratio and sends sets of ratio ≥ 3 to the scan, the other overloaded sets
to the waves, and packs the rest into cycle 0.

The engine has one caller, the greedy driver of :mod:`repro.perf.batch`:
:func:`repro.perf.batch.batch_schedule` passes B sets against one tree,
made channel-disjoint by per-set gid offsets, and
:func:`repro.core.greedy.schedule_greedy_first_fit` passes a batch of
one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["first_fit_assign"]


def _fits_pair(
    c_msg: np.ndarray,
    c_cap: np.ndarray,
    seg_start: np.ndarray,
    lower: np.ndarray,
    uncertain: np.ndarray,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Both certainty bounds in one fused pass set.

    Returns ``(upper_fits, lower_fits)``: per message, ``True`` iff it
    would fit every channel of its path after packing exactly the
    member messages that precede it in processing order, for the member
    sets ``lower | uncertain`` and ``lower`` respectively.  The
    two sets are disjoint by invariant, so the upper exclusive counts
    are the lower counts plus the uncertain counts: one extra cumsum
    instead of a second full pipeline, and the gathers are shared.
    """
    f_low = lower[c_msg]
    f_unc = uncertain[c_msg]
    excl_l = np.cumsum(f_low, dtype=np.int64)
    excl_l -= f_low
    excl_u = np.cumsum(f_unc, dtype=np.int64)
    excl_u -= f_unc
    excl_u += excl_l
    base_l = np.maximum.accumulate(np.where(seg_start, excl_l, 0))
    base_u = np.maximum.accumulate(np.where(seg_start, excl_u, 0))
    excl_l -= base_l  # now the within-segment exclusive member counts
    excl_u -= base_u
    bad_u = excl_u >= c_cap
    bad_l = excl_l >= c_cap
    upper_fits = np.bincount(c_msg[bad_u], minlength=m) == 0
    lower_fits = np.bincount(c_msg[bad_l], minlength=m) == 0
    return upper_fits, lower_fits


def _seg_start(gid: np.ndarray) -> np.ndarray:
    """Group-boundary flags of a gid-sorted occurrence vector."""
    out = np.empty(gid.size, dtype=bool)
    out[0] = True
    np.not_equal(gid[1:], gid[:-1], out=out[1:])
    return out


def _first_fit_scan(rows: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Sequential first-fit via per-channel saturation bitmasks.

    One pass over the messages: each channel gid keeps an arbitrary-
    precision int whose bit ``t`` is set once cycle ``t`` is saturated,
    so "earliest cycle with residual capacity on the whole path" is the
    lowest zero bit of the OR over the path's masks — ``O(path length)``
    cheap int operations per message instead of a per-cycle rescan.
    This is the profitable strategy when channel demand is many times
    capacity (many delivery cycles): the wave iteration's per-cycle
    passes would each touch nearly every occurrence, while this scan's
    total work is independent of the cycle count.
    """
    m = rows.shape[0]
    # compact the gid domain to channels actually touched: the per-cycle
    # residual rows are copied from caps, so their length must track the
    # footprint of *this* problem, not the full (possibly batch-tiled)
    # capacity vector.  A touched-flag prefix sum renumbers the gids in
    # O(caps + rows), without sorting.
    touched = np.zeros(caps.size, dtype=bool)
    touched[rows] = True
    slot = np.cumsum(touched, dtype=np.int64) - 1
    paths = slot[rows].tolist()
    caps_list = caps[touched].tolist()
    full = [0] * len(caps_list)  # per-gid bitmask of saturated cycles
    used: list[list[int]] = []  # per-cycle residual capacity per gid
    assignment = np.zeros(m, dtype=np.int64)
    out = assignment.tolist()
    num_cycles = 0
    for i, path in enumerate(paths):
        b = 0
        for g in path:
            b |= full[g]
        nb = ~b
        t = ((nb & -nb).bit_length()) - 1  # lowest zero bit of b
        if t == num_cycles:
            used.append(caps_list.copy())
            num_cycles += 1
        row = used[t]
        bit = 1 << t
        for g in path:
            c = row[g] - 1
            row[g] = c
            if not c:
                full[g] |= bit
        out[i] = t
    return np.asarray(out, dtype=np.int64)


def first_fit_assign(
    rows: np.ndarray, caps: np.ndarray, *, num_sets: int = 1
) -> tuple[np.ndarray, int]:
    """Sequential first-fit cycle assignment, fully vectorised.

    Parameters
    ----------
    rows:
        ``(m, width)`` int64 matrix of channel gids in **processing
        order** (row ``i`` is the ``i``-th message considered).  Padded
        entries are fine as long as their capacity never binds.
    caps:
        Flat int64 capacity vector indexed by gid.  Every gid appearing
        in ``rows`` must have capacity ≥ 1 (unroutable messages must be
        rejected by the caller first).
    num_sets:
        How many channel-disjoint problems ``rows`` holds: ``caps`` is
        then ``num_sets`` equal blocks of gids and every row's gids lie
        in one block (the offset embedding of
        :func:`repro.perf.batch.batch_schedule`).  Each set gets the
        strategy its own overload ratio calls for.

    Returns
    -------
    ``(assignment, num_cycles)`` where ``assignment[i]`` is the cycle
    the ``i``-th row lands in — bit-identical to the scalar loop
    "place each message in the earliest cycle with residual capacity on
    its whole path", run once per set.
    """
    m = rows.shape[0]
    assignment = np.zeros(m, dtype=np.int64)
    if m == 0:
        return assignment, 0
    # a set whose channel demand nowhere exceeds capacity packs into
    # cycle 0 outright — no sort needed.  Otherwise its densest
    # channel's overload ratio is a floor on its number of delivery
    # cycles: past a few cycles the wave iteration re-touches nearly
    # every occurrence per cycle, while the saturation-bitmask scan's
    # work is independent of the cycle count — switch over.
    demand = np.bincount(rows.reshape(-1), minlength=caps.size)
    ratio = (demand / np.maximum(caps, 1)).reshape(num_sets, -1).max(axis=1)
    heavy = ratio >= 3.0
    for group, engine in (
        (~heavy & (ratio > 1.0), _first_fit_waves),
        (heavy, _first_fit_scan),
    ):
        if group.all():
            assignment = engine(rows, caps)
        elif group.any():
            take = group[rows[:, 0] // (caps.size // num_sets)]
            assignment[take] = engine(rows[take], caps)
    return assignment, int(assignment.max()) + 1


def _first_fit_waves(rows: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """First-fit by certainty-interval waves (see the module docstring):
    the profitable strategy while channels are at most a few times
    overloaded."""
    m = rows.shape[0]
    assignment = np.zeros(m, dtype=np.int64)
    occ_gid = rows.reshape(-1)
    occ_msg = np.repeat(np.arange(m, dtype=np.int64), rows.shape[1])
    # one global stable sort; within a gid group, occurrences keep
    # processing order.  Waves below only ever *compact* these arrays,
    # which preserves both invariants.
    sort_idx = np.argsort(occ_gid, kind="stable")
    c_msg = occ_msg[sort_idx]
    c_gid = occ_gid[sort_idx]
    c_cap = caps[c_gid]

    remaining = np.ones(m, dtype=bool)
    n_remaining = m
    t = 0
    while n_remaining:
        # only channels whose *wave demand* exceeds their capacity can
        # reject anyone; everything else resolves without iteration.
        seg_start = _seg_start(c_gid)
        seg_id = np.cumsum(seg_start, dtype=np.int64) - 1
        demand = np.bincount(seg_id)
        hot = demand[seg_id] > c_cap
        if not hot.any():
            # every channel absorbs all its candidates: whole wave fits
            assignment[remaining] = t
            t += 1
            n_remaining = 0
            break
        h_msg = c_msg[hot]
        h_gid = c_gid[hot]
        h_cap = c_cap[hot]
        h_start = _seg_start(h_gid)

        contended = np.zeros(m, dtype=bool)
        contended[h_msg] = True
        # a candidate touching no over-demanded channel can never be
        # rejected this wave — certain accept without a single round
        lower = remaining & ~contended
        uncertain = remaining & contended
        n_uncertain = int(np.count_nonzero(uncertain))
        first_round = True
        while n_uncertain:
            if first_round:
                # round 1: every live occurrence belongs to a candidate,
                # so the upper member flags are all-true — the exclusive
                # count is just the position within the segment — and
                # lower has no contended member yet, so no rejects.
                first_round = False
                pos = np.arange(h_msg.size, dtype=np.int64)
                base = np.maximum.accumulate(np.where(h_start, pos, 0))
                pos -= base
                upper_fits = np.bincount(h_msg[pos >= h_cap], minlength=m) == 0
                lower_fits = None
            else:
                upper_fits, lower_fits = _fits_pair(
                    h_msg, h_cap, h_start, lower, uncertain, m
                )
            new_acc = uncertain & upper_fits
            n_acc = int(np.count_nonzero(new_acc))
            if n_acc:
                lower |= new_acc
                uncertain &= ~new_acc
                n_uncertain -= n_acc
                if not n_uncertain:
                    break
            if lower_fits is None:
                continue
            new_rej = uncertain & ~lower_fits
            n_rej = int(np.count_nonzero(new_rej))
            if n_rej:
                uncertain &= ~new_rej
                n_uncertain -= n_rej
                if n_uncertain:
                    # rejected messages stop mattering to anyone's counts:
                    # drop their occurrences so later rounds shrink
                    live = new_rej[h_msg]
                    np.logical_not(live, out=live)
                    h_msg = h_msg[live]
                    h_gid = h_gid[live]
                    h_cap = h_cap[live]
                    h_start = _seg_start(h_gid)
            if not (n_acc or n_rej):  # pragma: no cover - provably unreachable
                raise RuntimeError("first-fit certainty iteration stalled")

        n_placed = int(np.count_nonzero(lower))
        if not n_placed:
            # only possible when a row carries a zero-capacity gid, which
            # the routability contract forbids — fail loudly, not forever
            raise ValueError("a message fits no cycle (zero-capacity gid?)")
        assignment[lower] = t
        t += 1
        remaining &= ~lower
        n_remaining -= n_placed
        if n_remaining:
            keep = remaining[c_msg]
            c_msg = c_msg[keep]
            c_gid = c_gid[keep]
            c_cap = c_cap[keep]
    return assignment
