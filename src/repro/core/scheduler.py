"""The Theorem 1 off-line scheduler.

    *Theorem 1.  Let FT be a fat-tree on n processors, and let C be the
    set of channels in FT.  Then for any message set M with λ(M) >= 1,
    there is an off-line schedule M_1, …, M_d such that
    d = O(λ(M)·lg n).*

The algorithm follows the paper's proof:

1. Group the messages by the node they cross (their LCA in the underlying
   tree) and crossing direction.
2. For each node, partition the left→right group into one-cycle sets by
   repeated even splits (:mod:`repro.core.partition`); likewise the
   right→left group.  Repeated halving of a group with load factor λ_g
   yields at most ``2^ceil(lg λ_g) <= 2·ceil(λ_g)`` one-cycle sets.
3. A left→right set and a right→left set of the same node use disjoint
   channels, so they share a delivery cycle; all subtrees rooted at the
   same level also use disjoint channels, so they run concurrently.
4. Levels run in sequence: ``d = Σ_levels max_node (#sets)``, which is at
   most ``2·ceil(λ(M))·lg n``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..obs import Obs
    from .load import LevelLoads

from .errors import UnroutableError
from .fattree import Direction, FatTree
from .load import channel_loads
from .message import MessageSet
from .partition import even_split_indices, group_indices
from .schedule import Schedule
from .tree import level_of_flat

__all__ = ["schedule_theorem1", "theorem1_cycle_bound", "partition_group"]


def theorem1_cycle_bound(ft: FatTree, lam: float) -> int:
    """The Theorem 1 upper bound ``2·ceil(λ)·lg n`` on delivery cycles.

    (This is the explicit constant achieved by the implementation; the
    theorem states it as O(λ·lg n).)
    """
    import math

    return 2 * max(1, math.ceil(lam)) * max(1, ft.depth)


def _loads_fit(ft: FatTree, loads: LevelLoads) -> bool:
    """One-cycle test against precomputed per-channel loads."""
    for k in range(1, ft.depth + 1):
        if bool((loads.up[k] > ft.cap_vector(k, Direction.UP)).any()):
            return False
        if bool((loads.down[k] > ft.cap_vector(k, Direction.DOWN)).any()):
            return False
    return True


def partition_group(
    ft: FatTree, messages: MessageSet, idx: np.ndarray
) -> list[np.ndarray]:
    """Partition one same-LCA same-direction group into one-cycle sets.

    Repeatedly halves any piece that exceeds some channel's capacity.
    Every halving is an *even* split, so a group of load factor λ_g needs
    at most ``ceil(lg λ_g)`` rounds and yields at most ``2·ceil(λ_g)``
    pieces.  Each piece carries its channel loads down the halving tree:
    one half is counted fresh, the other is derived incrementally
    (:meth:`~repro.core.load.LevelLoads.apply_delta`), so every split
    costs one bincount pass over half the piece instead of two.
    """
    pending = [(idx, channel_loads(ft, messages.take(idx)))]
    done: list[np.ndarray] = []
    while pending:
        piece, loads = pending.pop()
        if piece.size == 0:
            continue
        if _loads_fit(ft, loads):
            done.append(piece)
        else:
            a, b = even_split_indices(messages, piece, ft.depth)
            if b.size == 0:  # unsplittable singleton that still violates
                raise ValueError(
                    "a single message exceeds channel capacity; "
                    "capacities must be >= 1 on every level"
                )
            loads_a = channel_loads(ft, messages.take(a))
            loads_b = loads.apply_delta(removed=messages.take(a))
            pending.append((a, loads_a))
            pending.append((b, loads_b))
    return done


def schedule_theorem1(
    ft: FatTree, messages: MessageSet, *, obs: Obs | None = None
) -> Schedule:
    """Schedule ``messages`` on ``ft`` per Theorem 1.

    Returns a validated-shape :class:`Schedule` with
    ``d <= 2·ceil(λ(M))·lg n`` delivery cycles.  Self-messages are
    excluded from the cycles (they use no channels).

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives a kernel wall-time
    span, one ``partition`` trace event per LCA level (how many cycles
    that level contributed) and per-cycle ``cycle`` events.
    """
    from ..obs import resolve_obs

    obs = resolve_obs(obs)
    if messages.n != ft.n:
        raise ValueError("message set and fat-tree disagree on n")
    routable = messages.without_self_messages()
    mask = ft.routable_mask(routable)
    if not mask.all():
        raise UnroutableError(routable.take(~mask).as_pairs())
    n_self = len(messages) - len(routable)
    with obs.kernel("schedule_theorem1", n=ft.n, m=len(routable)):
        groups = group_indices(routable, ft.depth)

        # node flat id -> list of one-cycle index sets, one list per direction
        per_node: dict[int, list[list[np.ndarray]]] = {}
        for key, idx in groups.items():
            flat = key >> 1
            direction = key & 1
            slots = per_node.setdefault(flat, [[], []])
            slots[direction] = partition_group(ft, routable, idx)

        # Group nodes by level; within a level all nodes route concurrently,
        # and the two directions of one node pair up in the same cycle.
        levels: dict[int, list[int]] = {}
        for flat in per_node:
            levels.setdefault(level_of_flat(flat), []).append(flat)

        cycles: list[MessageSet] = []
        per_level_cycles: dict[int, int] = {}
        for level in sorted(levels):
            node_sets = [per_node[flat] for flat in levels[level]]
            width = max(max(len(lr), len(rl)) for lr, rl in node_sets)
            per_level_cycles[level] = width
            for t in range(width):
                chunks = []
                for lr, rl in node_sets:
                    if t < len(lr):
                        chunks.append(lr[t])
                    if t < len(rl):
                        chunks.append(rl[t])
                take = np.concatenate(chunks)
                cycles.append(routable.take(take))
            if obs.enabled:
                obs.tracer.emit(
                    "partition",
                    scheduler="theorem1",
                    level=level,
                    nodes=len(node_sets),
                    cycles=width,
                )
                obs.metrics.inc(
                    "theorem1.level_cycles", width, level=level
                )

    if obs.enabled:
        _record_offline_cycles(obs, "theorem1", cycles, n_self)
    return Schedule(
        cycles=cycles, n_self_messages=n_self, per_level_cycles=per_level_cycles
    )


def _record_offline_cycles(
    obs: Obs, scheduler: str, cycles: list[MessageSet], n_self: int
) -> None:
    """Per-cycle accounting for an off-line scheduler: one ``cycle``
    event per delivery cycle (nothing is ever congested or deferred
    off-line) plus the self-message counter."""
    from ..perf.driver import _record_cycle

    for t, cycle in enumerate(cycles):
        _record_cycle(
            obs, scheduler, t, delivered=len(cycle), congested=0, deferred=0
        )
    obs.metrics.inc("messages.self", n_self, scheduler=scheduler)
