"""The chaos engine: controllers, recovery, and chaos entry points.

:class:`ChaosController` bundles one run's chaos machinery — a fresh
mutable :class:`~repro.faults.DegradedFatTree` (the caller's tree is
never mutated), the :class:`~repro.chaos.ChaosClock`, per-channel
:class:`~repro.chaos.ChannelHealth` breakers, and the per-cycle
:class:`~repro.core.CycleStats` recorder.  The on-line retry loops
(``schedule_random_rank``, ``simulate_online_retry``,
``run_until_delivered``) accept the controller through their
``chaos=`` parameter, and the one delivery-cycle driver they share
(:mod:`repro.perf.driver`) runs its hooks; ``run_store_and_forward``
and :func:`run_chaos_schedule` keep their own step loops and call its
one prologue method per step.  With ``chaos is None`` no hook runs and
no RNG draw moves, which is what makes an empty-timeline chaos run
bit-identical to a healthy run.

Recovery is incremental by construction: a capacity mutation
delta-updates the shared :class:`~repro.perf.PathIndex` via
:meth:`~repro.perf.PathIndex.invalidate_channels` (never a from-scratch
rebuild), newly-severed in-flight messages are *parked* until the
timeline's matching repair (:meth:`ChaosClock.heal_cycle`) or dropped
with full accounting when no repair is scheduled, and the off-line
executor (:func:`run_chaos_schedule`) repairs each delivery cycle
against the mutated capacities with
:meth:`~repro.core.LevelLoads.apply_delta` instead of rescheduling the
remaining traffic from scratch.

Every cycle of every chaos run satisfies the strengthened partition
invariant — ``delivered + congested + retried + deferred + dropped ==
in-flight`` — which :meth:`~repro.core.Schedule.validate` re-checks
from the recorded stats.
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np

from ..core.errors import DeliveryTimeout
from ..core.fattree import Direction, FatTree
from ..core.load import channel_loads
from ..core.message import MessageSet
from ..core.schedule import CycleStats, Schedule, ScheduleError
from ..faults.backoff import BackoffPolicy
from ..faults.degraded import DegradedFatTree
from ..faults.model import FaultModel
from ..perf import PAD_GID, get_path_index
from ..perf.driver import close_cycle
from .clock import ChaosClock
from .health import BreakerConfig, ChannelHealth
from .timeline import ChaosSchedule

__all__ = [
    "ChaosController",
    "run_chaos_random_rank",
    "run_chaos_online_retry",
    "run_chaos_switchsim",
    "run_chaos_store_and_forward",
    "run_chaos_schedule",
    "delivered_fraction",
    "assert_delivered_floor",
]

_ON_SEVERED = ("drop", "raise")


def _fresh_tree(ft: FatTree) -> DegradedFatTree:
    """A private degraded copy of ``ft`` for the chaos run to mutate."""
    if isinstance(ft, DegradedFatTree):
        base, faults = ft.base, ft.faults.copy()
    else:
        base, faults = ft, FaultModel()
    return DegradedFatTree(base, faults)


class ChaosController:
    """One chaos run's fault clock, breakers, and accounting.

    Single-use: construct one controller per run (the ``run_chaos_*``
    entry points do).  The controller owns :attr:`tree` — a fresh
    degraded copy of the tree it was given — so a chaos run never
    mutates the caller's objects.
    """

    def __init__(
        self,
        ft: FatTree,
        timeline: ChaosSchedule,
        *,
        backoff: BackoffPolicy | None = None,
        breaker: BreakerConfig | None = None,
        on_severed: str = "drop",
        obs=None,
    ):
        from ..obs import resolve_obs

        if on_severed not in _ON_SEVERED:
            raise ValueError(
                f"on_severed must be one of {_ON_SEVERED}, got {on_severed!r}"
            )
        self.obs = resolve_obs(obs)
        self.tree = _fresh_tree(ft)
        self.timeline = timeline
        self.clock = ChaosClock(self.tree, timeline, obs=obs)
        self.health = ChannelHealth(breaker, obs=obs)
        self.backoff = backoff
        self.on_severed = on_severed
        self.cycle_stats: list[CycleStats] = []
        self.dropped_rows: list[int] = []
        self._severed_gids: list[int] = []
        #: (in flight, dropped) of the cycle the last prologue opened
        self._opened = (0, 0)

    # -- per-cycle hooks ---------------------------------------------------

    def begin_cycle(self, t: int, index):
        """Advance the clock to cycle ``t`` and delta-update ``index``.

        Returns the (possibly replaced) path index.  After this call
        the gids severed by this advance — plus, at ``t == 0``, every
        channel already severed by the initial fault scenario — are
        staged for :meth:`severed_rows` / :meth:`resolve_severed`.
        """
        zeroed, _restored = self.clock.advance_to(t)
        if t == 0:
            self._severed_gids = sorted(self.clock.zero_gids)
        else:
            self._severed_gids = zeroed
        changed = self.clock.changed_gids
        if changed:
            index = index.invalidate_channels(self.tree, changed)
            if self.obs.enabled:
                self.obs.tracer.emit(
                    "chaos.reroute", t=t, channels=len(changed)
                )
                self.obs.metrics.inc("chaos.reroutes", channels=len(changed))
        return index

    def severed_rows(self, index, pending_mask: np.ndarray) -> np.ndarray:
        """Pending rows whose path crosses a newly-severed channel."""
        if not self._severed_gids:
            return np.empty(0, dtype=np.int64)
        hit = index.affected_rows(self._severed_gids)
        return np.flatnonzero(hit & pending_mask)

    def resolve_severed(
        self,
        index,
        rows: np.ndarray,
        t: int,
        messages: MessageSet,
        attempts,
        *,
        gids_of=None,
    ) -> tuple[list[int], dict[int, int]]:
        """Decide each severed row's fate: park until repair, or drop.

        Returns ``(drops, park)`` where ``park`` maps a row to the
        cycle its last severed channel heals at.  With
        ``on_severed="raise"`` a row with no scheduled repair aborts
        the run with a :class:`DeliveryTimeout` instead (the mid-flight
        severance abort path), after emitting a ``chaos.abort`` event.

        ``gids_of(i)`` overrides which channels row ``i`` still needs
        (store-and-forward passes the *remaining* hops: damage behind a
        message's progress point must not strand it); rows whose
        checked gids are all healthy are skipped.
        """
        caps = index.caps
        drops: list[int] = []
        park: dict[int, int] = {}
        for i in rows.tolist():
            row = index.paths[i] if gids_of is None else gids_of(i)
            zero = [int(g) for g in row if g != PAD_GID and caps[g] == 0]
            heals = [self.clock.heal_cycle(g) for g in zero]
            if zero and all(h is not None for h in heals):
                park[i] = max(t + 1, max(h for h in heals if h is not None))
            elif zero:
                drops.append(i)
        if drops and self.on_severed == "raise":
            if self.obs.enabled:
                self.obs.tracer.emit(
                    "chaos.abort", t=t, severed=len(drops)
                )
                self.obs.metrics.inc("chaos.aborted", len(drops))
            raise DeliveryTimeout(
                messages.take(np.asarray(drops, dtype=np.int64)).as_pairs(),
                t,
                Counter(int(attempts[i]) for i in drops),
            )
        if drops:
            self.dropped_rows.extend(drops)
        if self.obs.enabled and (drops or park):
            self.obs.tracer.emit(
                "chaos.severed",
                t=t,
                rows=int(rows.size),
                dropped=len(drops),
                parked=len(park),
            )
            if drops:
                self.obs.metrics.inc("chaos.dropped", len(drops))
            if park:
                self.obs.metrics.inc("chaos.parked", len(park))
        return drops, park

    def _prologue(self, t: int, index, live, messages, attempts, *, gids_of=None) -> tuple:
        """The per-cycle prologue of every chaos-instrumented loop:
        :meth:`begin_cycle`, then :meth:`resolve_severed` for the
        ``live`` rows (a mask of the rows in flight) that
        :meth:`severed_rows` finds.  Returns ``(index, drops, park)``,
        and opens the cycle's record with its in-flight and dropped
        counts."""
        index = self.begin_cycle(t, index)
        rows = self.severed_rows(index, live)
        drops: list[int] = []
        park: dict[int, int] = {}
        if rows.size:
            drops, park = self.resolve_severed(
                index, rows, t, messages, attempts, gids_of=gids_of
            )
        self._opened = (int(np.count_nonzero(live)), len(drops))
        return index, drops, park

    @property
    def perturbed(self) -> bool:
        """True once any timeline event has actually fired.

        The circuit breakers only engage from that point on: before the
        first event (and forever, with an empty timeline) every failure
        is pure arbitration congestion, which must not trip breakers —
        that is what keeps the healthy prefix of a chaos run
        bit-identical to a healthy run.
        """
        return self.clock.applied_events > 0

    def breaker_blocked(self, index, eligible: np.ndarray, t: int) -> np.ndarray:
        """Boolean mask over ``eligible``: deferred by an open breaker."""
        if not self.perturbed:
            return np.zeros(eligible.size, dtype=bool)
        blocked = self.health.blocked_gids(t)
        if not blocked:
            return np.zeros(eligible.size, dtype=bool)
        gids = np.asarray(sorted(blocked), dtype=np.int64)
        return np.isin(index.paths[eligible], gids).any(axis=1)

    def note_outcomes(
        self, index, delivered: np.ndarray, failed: np.ndarray, t: int
    ) -> None:
        """Feed per-channel success/failure tallies to the breakers.

        A no-op until the timeline first perturbs the network (see
        :attr:`perturbed`): pure arbitration congestion never trips a
        breaker.
        """
        if not self.perturbed:
            return
        if delivered.size == 0 and failed.size == 0:
            return
        successes = self._tally(index, delivered)
        failures = self._tally(index, failed)
        self.health.on_cycle(t, failures, successes)

    @staticmethod
    def _tally(index, rows: np.ndarray) -> dict[int, int]:
        if rows.size == 0:
            return {}
        counts = np.bincount(
            index.paths[rows].ravel(), minlength=index.num_slots
        )
        counts[PAD_GID] = 0
        return {int(g): int(counts[g]) for g in np.flatnonzero(counts)}

    def loss_rate(self, base: float) -> float:
        """The transient corruption rate in force at the current cycle."""
        return self.clock.loss_rate(base)

    # -- accounting --------------------------------------------------------

    def record(
        self,
        *,
        in_flight: int,
        delivered: int,
        congested: int,
        retried: int,
        deferred: int,
        dropped: int,
    ) -> CycleStats:
        """Record (and immediately check) one cycle's outcome partition."""
        stats = CycleStats(
            in_flight=in_flight,
            delivered=delivered,
            congested=congested,
            retried=retried,
            deferred=deferred,
            dropped=dropped,
        )
        stats.check()
        self.cycle_stats.append(stats)
        return stats

    def dropped_messages(self, messages: MessageSet) -> MessageSet | None:
        """The dropped sub-multiset (``None`` when nothing was dropped)."""
        if not self.dropped_rows:
            return None
        rows = np.asarray(sorted(self.dropped_rows), dtype=np.int64)
        return messages.take(rows)

    def dropped_pairs(self, messages: MessageSet) -> list[tuple[int, int]]:
        """The dropped ``(src, dst)`` pairs, in row order."""
        dropped = self.dropped_messages(messages)
        return [] if dropped is None else dropped.as_pairs()


# -- runtime entry points --------------------------------------------------


def run_chaos_random_rank(
    ft: FatTree,
    messages: MessageSet,
    timeline: ChaosSchedule,
    *,
    seed: int = 0,
    max_cycles: int = 100_000,
    loss_rate: float | None = None,
    backoff: BackoffPolicy | None = None,
    breaker: BreakerConfig | None = None,
    on_severed: str = "drop",
    obs=None,
) -> Schedule:
    """Random-rank on-line routing under a chaos timeline.

    The returned :class:`Schedule` carries per-cycle
    :class:`~repro.core.CycleStats` and the dropped sub-multiset; with
    an empty timeline it is cycle-for-cycle bit-identical to
    :func:`~repro.core.online.schedule_random_rank` on the same tree
    and seed.  ``obs`` is forwarded to the underlying kernel.
    """
    from ..core.online import schedule_random_rank

    ctrl = ChaosController(
        ft,
        timeline,
        backoff=backoff,
        breaker=breaker,
        on_severed=on_severed,
        obs=obs,
    )
    return schedule_random_rank(
        ctrl.tree,
        messages,
        seed=seed,
        max_cycles=max_cycles,
        loss_rate=loss_rate,
        backoff=backoff,
        obs=obs,
        chaos=ctrl,
    )


def run_chaos_online_retry(
    ft: FatTree,
    messages: MessageSet,
    timeline: ChaosSchedule,
    *,
    seed: int = 0,
    max_cycles: int = 100_000,
    breaker: BreakerConfig | None = None,
    on_severed: str = "drop",
    obs=None,
) -> Schedule:
    """The §II shuffle-and-retry loop under a chaos timeline.

    Empty timeline ⇒ bit-identical to
    :func:`~repro.core.greedy.simulate_online_retry`.  ``obs`` is
    forwarded to the underlying loop.
    """
    from ..core.greedy import simulate_online_retry

    ctrl = ChaosController(
        ft, timeline, breaker=breaker, on_severed=on_severed, obs=obs
    )
    return simulate_online_retry(
        ctrl.tree,
        messages,
        seed=seed,
        max_cycles=max_cycles,
        obs=obs,
        chaos=ctrl,
    )


def run_chaos_switchsim(
    ft: FatTree,
    messages: MessageSet,
    timeline: ChaosSchedule,
    *,
    concentrators: str = "ideal",
    seed: int = 0,
    payload_bits: int = 0,
    fault_rate: float = 0.0,
    max_cycles: int = 10_000,
    backoff: BackoffPolicy | None = None,
    breaker: BreakerConfig | None = None,
    on_severed: str = "drop",
    obs=None,
):
    """The bit-serial switch simulator's retry loop under chaos.

    Empty timeline ⇒ bit-identical reports to
    :func:`~repro.hardware.switchsim.run_until_delivered`.  ``obs`` is
    forwarded into every delivery cycle.
    """
    from ..hardware.switchsim import run_until_delivered

    ctrl = ChaosController(
        ft,
        timeline,
        backoff=backoff,
        breaker=breaker,
        on_severed=on_severed,
        obs=obs,
    )
    return run_until_delivered(
        ctrl.tree,
        messages,
        concentrators=concentrators,
        seed=seed,
        payload_bits=payload_bits,
        fault_rate=fault_rate,
        max_cycles=max_cycles,
        backoff=backoff,
        obs=obs,
        chaos=ctrl,
    )


def run_chaos_store_and_forward(
    ft: FatTree,
    messages: MessageSet,
    timeline: ChaosSchedule,
    *,
    max_steps: int = 1_000_000,
    on_severed: str = "drop",
    obs=None,
):
    """The buffered store-and-forward design under chaos.

    A severed channel simply parks its queue (store-and-forward is
    self-healing by nature); messages whose severed hop never repairs
    are dropped with accounting.  Empty timeline ⇒ bit-identical to
    :func:`~repro.hardware.buffered.run_store_and_forward`.  ``obs``
    is forwarded to the underlying simulator.
    """
    from ..hardware.buffered import run_store_and_forward

    ctrl = ChaosController(ft, timeline, on_severed=on_severed, obs=obs)
    return run_store_and_forward(
        ctrl.tree, messages, max_steps=max_steps, obs=obs, chaos=ctrl
    )


_OFFLINE_SCHEDULERS = ("theorem1", "corollary2", "greedy")


def run_chaos_schedule(
    ft: FatTree,
    messages: MessageSet,
    timeline: ChaosSchedule,
    *,
    scheduler: str = "theorem1",
    schedule: Schedule | None = None,
    max_cycles: int = 100_000,
    on_severed: str = "drop",
    obs=None,
) -> Schedule:
    """Execute an off-line schedule while the tree degrades under it.

    Builds (or takes) a healthy schedule for the *initial* tree, then
    replays it cycle by cycle against the chaos timeline.  Each head
    cycle is *repaired* against the current capacities instead of
    rescheduling the remaining traffic from scratch: messages over a
    now-overloaded channel are evicted to the next cycle (first-come
    kept, excess deferred) and the repair is verified incrementally
    with :meth:`~repro.core.LevelLoads.apply_delta`; severed messages
    park until their scheduled repair or drop.  With an empty timeline
    the output cycles equal the input schedule's exactly.

    Returns a :class:`Schedule` with per-cycle stats and drops; raises
    :class:`DeliveryTimeout` past ``max_cycles`` and, with
    ``on_severed="raise"``, on the first unrepairable severance.
    ``obs`` is threaded through scheduling and accounting.
    """
    if scheduler not in _OFFLINE_SCHEDULERS:
        raise ValueError(
            f"scheduler must be one of {_OFFLINE_SCHEDULERS}, got {scheduler!r}"
        )
    ctrl = ChaosController(ft, timeline, on_severed=on_severed, obs=obs)
    tree = ctrl.tree
    routable = messages.without_self_messages()
    n_self = len(messages) - len(routable)
    if schedule is None:
        schedule = _offline_schedule(tree, messages, scheduler, obs)
    index = get_path_index(tree, routable, obs=obs)
    m = len(routable)

    # map the schedule's cycles onto master row indices (multiset match)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (s, d) in enumerate(
        zip(routable.src.tolist(), routable.dst.tolist())
    ):
        buckets.setdefault((s, d), []).append(i)
    queue: deque[np.ndarray] = deque()
    for cycle in schedule.cycles:
        rows = [
            buckets[(int(s), int(d))].pop()
            for s, d in zip(cycle.src.tolist(), cycle.dst.tolist())
        ]
        queue.append(np.asarray(rows, dtype=np.int64))

    attempts = np.zeros(m, dtype=np.int64)
    pending_mask = np.ones(m, dtype=bool)
    parked: dict[int, int] = {}
    out_cycles: list[MessageSet] = []
    undelivered = m
    t = 0
    while undelivered:
        if t >= max_cycles:
            remaining = np.flatnonzero(pending_mask)
            raise DeliveryTimeout(
                routable.take(remaining).as_pairs(),
                t,
                Counter(attempts[remaining].tolist()),
            )
        index, drops, park = ctrl._prologue(
            t, index, pending_mask, routable, attempts
        )
        caps = index.caps
        moved = set(drops) | set(park)
        if moved:
            queue = deque(
                rows[~np.isin(rows, np.asarray(sorted(moved), dtype=np.int64))]
                for rows in queue
            )
            for i in drops:
                parked.pop(i, None)
                pending_mask[i] = False
            undelivered -= len(drops)
            parked.update(park)
        # release parked rows whose repair has landed
        due = sorted(i for i, h in parked.items() if h <= t)
        for i in due:
            del parked[i]
        head = queue.popleft() if queue else np.empty(0, dtype=np.int64)
        if due:
            head = np.concatenate([head, np.asarray(due, dtype=np.int64)])
        # repair the head against current capacities: evict the excess
        keep_mask = np.ones(head.size, dtype=bool)
        if head.size:
            lv = index.load_vector(head)
            for gid in np.flatnonzero(lv > caps).tolist():
                crossing = np.flatnonzero(
                    (index.paths[head] == gid).any(axis=1) & keep_mask
                )
                allowed = int(caps[gid])
                if crossing.size > allowed:
                    keep_mask[crossing[allowed:]] = False
        delivered_rows = head[keep_mask]
        evicted = head[~keep_mask]
        if evicted.size:
            # verify the repair incrementally: removing the evicted
            # rows from the head's loads must leave a one-cycle set
            # against the *current* (mutated) capacities
            loads = channel_loads(tree, routable.take(head)).apply_delta(
                removed=routable.take(evicted)
            )
            for k in range(1, tree.depth + 1):
                over_up = loads.up[k] > tree.cap_vector(k, Direction.UP)
                over_down = loads.down[k] > tree.cap_vector(k, Direction.DOWN)
                if bool(over_up.any()) or bool(over_down.any()):
                    raise ScheduleError(
                        f"cycle {t} repair left level {k} overloaded "
                        "after eviction"
                    )
            attempts[evicted] += 1
        congested = int((attempts[evicted] == 1).sum())
        close_cycle(
            ctrl,
            delivered=int(delivered_rows.size),
            deferred=sum(int(rows.size) for rows in queue) + len(parked),
            congested=congested,
            retried=int(evicted.size) - congested,
        )
        out_cycles.append(routable.take(delivered_rows))
        pending_mask[delivered_rows] = False
        undelivered -= int(delivered_rows.size)
        if evicted.size:
            if queue:
                queue[0] = np.concatenate([evicted, queue[0]])
            else:
                queue.append(evicted)
        t += 1
    return Schedule(
        cycles=out_cycles,
        n_self_messages=n_self,
        cycle_stats=ctrl.cycle_stats,
        dropped=ctrl.dropped_messages(routable),
    )


def _offline_schedule(
    tree: DegradedFatTree, messages: MessageSet, scheduler: str, obs
) -> Schedule:
    from ..core.greedy import schedule_greedy_first_fit
    from ..core.reuse_scheduler import schedule_corollary2
    from ..core.scheduler import schedule_theorem1

    if scheduler == "theorem1":
        return schedule_theorem1(tree, messages, obs=obs)
    if scheduler == "corollary2":
        return schedule_corollary2(tree, messages, obs=obs)
    return schedule_greedy_first_fit(tree, messages, obs=obs)


# -- graceful-degradation gates --------------------------------------------


def delivered_fraction(result) -> float:
    """Fraction of routed traffic a chaos run actually delivered.

    Accepts a :class:`~repro.core.Schedule`, a switchsim
    ``RetryOutcome``, or a buffered ``BufferedRun``; healthy runs (and
    empty workloads) report 1.0.
    """
    if isinstance(result, Schedule):
        delivered = sum(len(cycle) for cycle in result.cycles)
        dropped = 0 if result.dropped is None else len(result.dropped)
    elif hasattr(result, "reports"):  # RetryOutcome
        delivered = sum(len(r.delivered) for r in result.reports)
        dropped = len(getattr(result, "dropped", []))
    elif hasattr(result, "latencies"):  # BufferedRun
        dropped = len(getattr(result, "dropped", []))
        delivered = int(result.latencies.size) - dropped
    else:
        raise TypeError(f"no delivered-fraction view of {type(result).__name__}")
    total = delivered + dropped
    return 1.0 if total == 0 else delivered / total


def assert_delivered_floor(result, floor: float) -> float:
    """The graceful-degradation gate: delivered fraction >= ``floor``.

    Returns the measured fraction; raises ``AssertionError`` below the
    declared floor.
    """
    fraction = delivered_fraction(result)
    if fraction + 1e-12 < floor:
        raise AssertionError(
            f"delivered fraction {fraction:.4f} below declared floor {floor:.4f}"
        )
    return fraction
