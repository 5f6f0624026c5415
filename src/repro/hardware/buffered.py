"""A buffered (store-and-forward) fat-tree: the §VII design alternative.

§VII: "We also assumed the architecture was synchronized by delivery
cycle.  Presumably, fat-tree architectures can be built with different
design decisions."  This module builds the most natural alternative:
switches hold per-node queues, and each channel moves up to ``cap(c)``
queued messages per time step (no delivery cycles, no batching, no
off-line schedule — pure dynamic store-and-forward with oldest-first
service).

The quantities of interest, which bench E20 compares against the
delivery-cycle design:

* *makespan* — steps until the last delivery; lower-bounded by both the
  load factor λ(M) and the longest path;
* *latency* — per-message time in the network;
* *queue depth* — the buffering the design buys its simplicity with
  (the circuit-switched design needs no switch buffers at all).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import DeliveryTimeout, UnroutableError
from ..core.fattree import FatTree
from ..core.message import MessageSet

__all__ = ["BufferedRun", "run_store_and_forward"]


@dataclass
class BufferedRun:
    """Outcome of a buffered store-and-forward run.

    Chaos-instrumented runs additionally carry the ``(src, dst)`` pairs
    of messages dropped after an unrepairable severance (their latency
    stays 0) and one :class:`~repro.core.CycleStats` row per step; both
    stay empty for healthy runs.
    """

    makespan: int
    latencies: np.ndarray
    max_queue_depth: int
    dropped: list[tuple[int, int]] = field(default_factory=list)
    cycle_stats: list = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        return float(self.latencies.mean()) if self.latencies.size else 0.0

    @property
    def max_latency(self) -> int:
        return int(self.latencies.max()) if self.latencies.size else 0


def run_store_and_forward(
    ft: FatTree,
    messages: MessageSet,
    *,
    max_steps: int = 1_000_000,
    obs=None,
    chaos=None,
) -> BufferedRun:
    """Dynamically deliver ``messages``; oldest-first channel service.

    Each step, every channel independently forwards up to ``cap(c)`` of
    the oldest messages queued at its tail that want to cross it.
    Capacities are per channel, so degraded trees serve only their
    surviving wires; messages with a severed path raise
    :class:`~repro.core.errors.UnroutableError` up front.  Messages
    still in flight after ``max_steps`` steps raise
    :class:`~repro.core.errors.DeliveryTimeout` with their pairs, the
    step count and a histogram of hops each had completed.

    ``obs`` (default: the module-level
    :func:`~repro.obs.get_default_obs`) receives one ``step`` trace
    event per time step (hops moved, deliveries, live queue depth), a
    queue-depth histogram and a kernel wall-time span.

    ``chaos`` attaches a :class:`~repro.chaos.ChaosController` whose
    timeline mutates capacities between steps.  Store-and-forward is
    naturally self-healing: a severed channel simply serves nothing, so
    messages queued at it wait in place until the scheduled repair.
    Only a message whose remaining hops cross a channel that *never*
    repairs is dropped (recorded on the run, with per-step
    :class:`~repro.core.CycleStats`) or — with ``on_severed="raise"``
    on the controller — aborts the run.  With ``chaos=None`` or an
    empty timeline the simulation is bit-identical to a healthy run.
    """
    from ..obs import resolve_obs
    from ..perf import get_path_index
    from ..perf.driver import close_cycle

    obs = resolve_obs(obs)
    if messages.n != ft.n:
        raise ValueError("message set and fat-tree disagree on n")
    routable = messages.without_self_messages()
    index = get_path_index(ft, routable, obs=obs)
    mask = index.routable_mask()
    if chaos is None and not mask.all():
        raise UnroutableError(routable.take(~mask).as_pairs())
    # the shared PathIndex row layout yields hops in exact path order
    paths = [index.hops(i) for i in range(len(routable))]
    m = len(paths)
    if m == 0:
        return BufferedRun(0, np.empty(0, dtype=np.int64), 0)

    caps = index.caps
    progress = [0] * m
    # queue per channel gid: message ids waiting to cross it, FIFO by age
    queues: dict[int, deque] = {}
    for i, hops in enumerate(paths):
        queues.setdefault(hops[0], deque()).append(i)

    latencies = np.zeros(m, dtype=np.int64)
    pending_mask = np.ones(m, dtype=bool)
    remaining = m
    max_depth = max(len(q) for q in queues.values())
    step = 0
    tracing = obs.enabled
    with obs.kernel("run_store_and_forward", n=ft.n, m=m):
        while remaining:
            if step >= max_steps:
                rows = np.flatnonzero(pending_mask)
                raise DeliveryTimeout(
                    routable.take(rows).as_pairs(),
                    step,
                    Counter(progress[i] for i in rows.tolist()),
                )
            if chaos is not None:
                # a severed hop behind a message's progress point cannot
                # strand it: only its remaining hops are checked
                index, drops, _park = chaos._prologue(
                    step, index, pending_mask, routable, progress,
                    gids_of=lambda i: paths[i][progress[i] :],
                )
                caps = index.caps
                for i in drops:
                    queues[paths[i][progress[i]]].remove(i)
                    pending_mask[i] = False
                remaining -= len(drops)
                if remaining == 0:
                    step += 1
                    close_cycle(chaos, delivered=0, deferred=0)
                    break
            step += 1
            moves: list[int] = []
            for gid, queue in queues.items():
                cap = int(caps[gid])
                for _ in range(min(cap, len(queue))):
                    moves.append(queue.popleft())
            delivered_now = 0
            for i in moves:
                progress[i] += 1
                if progress[i] == len(paths[i]):
                    latencies[i] = step
                    pending_mask[i] = False
                    remaining -= 1
                    delivered_now += 1
                else:
                    queues.setdefault(paths[i][progress[i]], deque()).append(i)
            depth_now = max((len(q) for q in queues.values()), default=0)
            max_depth = max(max_depth, depth_now)
            if chaos is not None:
                close_cycle(
                    chaos,
                    delivered=delivered_now,
                    deferred=sum(len(q) for q in queues.values()),
                )
            if tracing:
                obs.tracer.emit(
                    "step",
                    simulator="store_and_forward",
                    t=step,
                    moves=len(moves),
                    delivered=delivered_now,
                    queue_depth=depth_now,
                )
                obs.metrics.observe(
                    "queue.depth", depth_now, simulator="store_and_forward"
                )
                if delivered_now:
                    obs.metrics.inc(
                        "messages.delivered",
                        delivered_now,
                        scheduler="store_and_forward",
                    )
    if tracing:
        obs.metrics.set_gauge(
            "queue.max_depth", max_depth, simulator="store_and_forward"
        )
    run = BufferedRun(
        makespan=step, latencies=latencies, max_queue_depth=max_depth
    )
    if chaos is not None:
        run.dropped = chaos.dropped_pairs(routable)
        run.cycle_stats = list(chaos.cycle_stats)
    return run
