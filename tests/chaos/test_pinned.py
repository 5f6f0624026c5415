"""Pinned chaos outputs of the on-line random-rank kernel.

The chaos path has no pure-Python oracle, so these fixed timelines pin
what :func:`~repro.chaos.run_chaos_random_rank` returns: the cycle
count, a digest of the exact per-cycle ``(src, dst)`` sequences, the
per-cycle :class:`~repro.core.CycleStats` and the dropped messages (or,
for ``on_severed="raise"``, the abort's :class:`DeliveryTimeout`).  The
figures were recorded from the solo random-rank loop before the chaos
hooks moved into the shared batched loop; any change to the kernel that
alters a single draw, grant, park, drop or breaker decision shows here.
"""

import hashlib
import json

import pytest

from repro.chaos import ChaosEvent, ChaosSchedule, run_chaos_random_rank
from repro.chaos.health import BreakerConfig
from repro.core import DeliveryTimeout, FatTree
from repro.faults import BackoffPolicy
from repro.obs import Obs
from repro.workloads import hotspot, uniform_random

FT = FatTree(32)
CAP1 = FT.cap(1)


def _ev(at, kind, **fields):
    return ChaosEvent(at=at, kind=kind, **fields)


#: name -> (messages, timeline events, run_chaos_random_rank keywords)
SCENARIOS = {
    # a level-1 switch dies at cycle 1 and is repaired at cycle 4: its
    # traffic parks until the repair, nothing is dropped
    "kill-repair-park": (
        uniform_random(32, 96, seed=1),
        (
            _ev(1, "switch-kill", level=1, index=0),
            _ev(4, "switch-repair", level=1, index=0),
        ),
        {"seed": 3},
    ),
    # a kill with no repair: severed traffic is dropped with accounting
    "kill-drop": (
        uniform_random(32, 96, seed=2),
        (_ev(2, "switch-kill", level=1, index=1),),
        {"seed": 4},
    ),
    # transient loss switches on, off and on again over a base rate
    "loss-flips": (
        uniform_random(32, 96, seed=3),
        (
            _ev(0, "loss-rate", rate=0.3),
            _ev(3, "loss-rate", rate=0.0),
            _ev(5, "loss-rate", rate=0.6),
            _ev(8, "loss-rate", rate=0.1),
        ),
        {"seed": 5, "loss_rate": 0.05},
    ),
    # loss under an explicit policy with its own seeded jitter stream
    "loss-jitter-backoff": (
        hotspot(32, 64, fraction=0.2, seed=4),
        (_ev(1, "loss-rate", rate=0.4), _ev(6, "loss-rate", rate=0.0)),
        {"seed": 6, "backoff": BackoffPolicy(base=2, cap=8, jitter_seed=11)},
    ),
    # a root channel loses all but one wire: hair-trigger breakers trip
    # and defer traffic until the wires come back
    "breaker-trip": (
        uniform_random(32, 128, seed=5),
        (
            _ev(1, "wire-drop", level=1, index=0, count=CAP1 - 1),
            _ev(6, "wire-repair", level=1, index=0, count=CAP1 - 1),
        ),
        {
            "seed": 7,
            "breaker": BreakerConfig(
                failure_threshold=1, cooldown=2, max_cooldown=8, jitter_seed=3
            ),
        },
    ),
    # the root dies mid-flight and severed traffic aborts the run
    "raise": (
        uniform_random(32, 96, seed=6),
        (_ev(2, "switch-kill", level=0, index=0),),
        {"seed": 8, "on_severed": "raise"},
    ),
}


def _digest(value) -> str:
    return hashlib.blake2b(
        json.dumps(value).encode(), digest_size=8
    ).hexdigest()


def fingerprint(name: str) -> dict:
    """The pinned view of one scenario's run."""
    messages, events, kwargs = SCENARIOS[name]
    obs = Obs(enabled=True)
    try:
        sched = run_chaos_random_rank(
            FT, messages, ChaosSchedule(events), obs=obs, **kwargs
        )
    except DeliveryTimeout as exc:
        return {
            "timeout_cycle": exc.cycles,
            "undelivered": len(exc.undelivered),
            "undelivered_digest": _digest(sorted(map(list, exc.undelivered))),
            "attempts": sorted(exc.attempts.items()),
        }
    sched.validate(FT, messages)
    pairs = [list(zip(c.src.tolist(), c.dst.tolist())) for c in sched.cycles]
    stats = [
        [s.in_flight, s.delivered, s.congested, s.retried, s.deferred, s.dropped]
        for s in sched.cycle_stats
    ]
    dropped = (
        []
        if sched.dropped is None
        else sorted(zip(sched.dropped.src.tolist(), sched.dropped.dst.tolist()))
    )
    return {
        "cycles": sched.num_cycles,
        "cycles_digest": _digest(pairs),
        "stats_totals": [sum(col) for col in zip(*stats)],
        "stats_digest": _digest(stats),
        "dropped": len(dropped),
        "dropped_digest": _digest(dropped),
        "breaker_trips": obs.metrics.counter_value(
            "breaker.transition", from_state="closed", to_state="open"
        ),
    }


#: stats columns: in_flight, delivered, congested, retried, deferred, dropped
PINNED = {
    "breaker-trip": {
        "cycles": 50,
        "cycles_digest": "ca5cc7e9c0003b40",
        "stats_totals": [1994, 126, 110, 208, 1550, 0],
        "stats_digest": "085e81cedc76e4e8",
        "dropped": 0,
        "dropped_digest": "71857576257465c7",
        "breaker_trips": 214,
    },
    "kill-drop": {
        "cycles": 6,
        "cycles_digest": "a34094b62eb1105e",
        "stats_totals": [266, 43, 83, 90, 0, 50],
        "stats_digest": "8013482db6866c42",
        "dropped": 50,
        "dropped_digest": "011db6d86450a51b",
        "breaker_trips": 0,
    },
    "kill-repair-park": {
        "cycles": 14,
        "cycles_digest": "0c6e32768abba95e",
        "stats_totals": [499, 94, 82, 111, 212, 0],
        "stats_digest": "aa32b4a1dd8f982e",
        "dropped": 0,
        "dropped_digest": "71857576257465c7",
        "breaker_trips": 10,
    },
    "loss-flips": {
        "cycles": 41,
        "cycles_digest": "e08c02608c04a822",
        "stats_totals": [852, 92, 84, 180, 496, 0],
        "stats_digest": "4f714f29119a4829",
        "dropped": 0,
        "dropped_digest": "71857576257465c7",
        "breaker_trips": 38,
    },
    "loss-jitter-backoff": {
        "cycles": 23,
        "cycles_digest": "2724ce73aed38bbb",
        "stats_totals": [434, 61, 48, 78, 247, 0],
        "stats_digest": "a8b0745e72a35232",
        "dropped": 0,
        "dropped_digest": "71857576257465c7",
        "breaker_trips": 20,
    },
    "raise": {
        "timeout_cycle": 2,
        "undelivered": 31,
        "undelivered_digest": "51a33a4690395d9f",
        "attempts": [(2, 31)],
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_chaos_random_rank_output_is_pinned(name):
    assert fingerprint(name) == PINNED[name]


def test_scenarios_cover_every_recovery_path():
    """The timelines above really exercise park, drop, loss, breakers
    and the abort (guards the pins against a vacuous scenario)."""
    park = PINNED["kill-repair-park"]
    assert park["dropped"] == 0 and park["stats_totals"][4] > 0
    assert PINNED["kill-drop"]["dropped"] > 0
    assert PINNED["loss-flips"]["stats_totals"][3] > 0  # retried
    assert PINNED["breaker-trip"]["breaker_trips"] > 0
    assert PINNED["raise"]["undelivered"] > 0
