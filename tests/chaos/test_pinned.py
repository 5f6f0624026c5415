"""Pinned outputs of the on-line retry loops.

Random-rank under chaos, shuffle-first-fit (healthy and under chaos),
the bit-serial switch model (ideal, Pippenger and faulty concentrators,
and under chaos) and store-and-forward under chaos have no pure-Python
oracle, so these fixed inputs pin what each returns: the cycle count, a
digest of the exact per-cycle output (``(src, dst)`` sequences, switch
reports, or per-message latencies), the attempt histogram where the
result carries one, the per-cycle :class:`~repro.core.CycleStats` and
the dropped messages (or, when the run gives up, its
:class:`DeliveryTimeout`).  The random-rank figures were recorded
before the chaos hooks moved into the batched loop, the others before
the retry loops moved onto the shared delivery-cycle driver; any change
that alters a single draw, grant, park, drop, backoff or breaker
decision shows here.
"""

import hashlib
import json

import pytest

from repro.chaos import (
    ChaosEvent,
    ChaosSchedule,
    run_chaos_online_retry,
    run_chaos_random_rank,
    run_chaos_store_and_forward,
    run_chaos_switchsim,
)
from repro.chaos.engine import ChaosController
from repro.chaos.health import BreakerConfig
from repro.core import DeliveryTimeout, FatTree, Schedule, simulate_online_retry
from repro.faults import BackoffPolicy
from repro.hardware import run_until_delivered
from repro.obs import Obs
from repro.workloads import hotspot, uniform_random

FT = FatTree(32)
CAP1 = FT.cap(1)

RANDOM_RANK = "random-rank"
ONLINE_RETRY = "online-retry"
SWITCHSIM = "switchsim"
STORE_AND_FORWARD = "store-and-forward"


def _ev(at, kind, **fields):
    return ChaosEvent(at=at, kind=kind, **fields)


def _hair_trigger(jitter_seed=3):
    return BreakerConfig(
        failure_threshold=1, cooldown=2, max_cooldown=8, jitter_seed=jitter_seed
    )


#: a level-1 switch dies at cycle 1 and is repaired at cycle 4
KILL_REPAIR = (
    _ev(1, "switch-kill", level=1, index=0),
    _ev(4, "switch-repair", level=1, index=0),
)
#: a level-1 switch dies at cycle 2 and is never repaired
KILL = (_ev(2, "switch-kill", level=1, index=1),)
#: a root channel loses all but one wire, then gets them back
WIRE_DROP = (
    _ev(1, "wire-drop", level=1, index=0, count=CAP1 - 1),
    _ev(6, "wire-repair", level=1, index=0, count=CAP1 - 1),
)

#: name -> (loop, messages, timeline events or None for a healthy call
#: without a controller, keywords)
SCENARIOS = {
    # -- random-rank (run_chaos_random_rank) --------------------------------
    # a level-1 switch dies at cycle 1 and is repaired at cycle 4: its
    # traffic parks until the repair, nothing is dropped
    "kill-repair-park": (
        RANDOM_RANK,
        uniform_random(32, 96, seed=1),
        KILL_REPAIR,
        {"seed": 3},
    ),
    # a kill with no repair: severed traffic is dropped with accounting
    "kill-drop": (
        RANDOM_RANK,
        uniform_random(32, 96, seed=2),
        KILL,
        {"seed": 4},
    ),
    # transient loss switches on, off and on again over a base rate
    "loss-flips": (
        RANDOM_RANK,
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
        RANDOM_RANK,
        hotspot(32, 64, fraction=0.2, seed=4),
        (_ev(1, "loss-rate", rate=0.4), _ev(6, "loss-rate", rate=0.0)),
        {"seed": 6, "backoff": BackoffPolicy(base=2, cap=8, jitter_seed=11)},
    ),
    # a root channel loses all but one wire: hair-trigger breakers trip
    # and defer traffic until the wires come back
    "breaker-trip": (
        RANDOM_RANK,
        uniform_random(32, 128, seed=5),
        WIRE_DROP,
        {"seed": 7, "breaker": _hair_trigger()},
    ),
    # the root dies mid-flight and severed traffic aborts the run
    "raise": (
        RANDOM_RANK,
        uniform_random(32, 96, seed=6),
        (_ev(2, "switch-kill", level=0, index=0),),
        {"seed": 8, "on_severed": "raise"},
    ),
    # -- shuffle-first-fit (simulate_online_retry / run_chaos_online_retry)
    "online-healthy": (
        ONLINE_RETRY,
        hotspot(32, 128, fraction=0.3, seed=7),
        None,
        {"seed": 2},
    ),
    "online-kill-repair-park": (
        ONLINE_RETRY,
        uniform_random(32, 96, seed=1),
        KILL_REPAIR,
        {"seed": 3},
    ),
    "online-kill-drop": (
        ONLINE_RETRY,
        uniform_random(32, 96, seed=2),
        KILL,
        {"seed": 4},
    ),
    # breakers trip; in some cycles every pending row is held back,
    # and such a cycle still shuffles the carried order
    "online-breaker-trip": (
        ONLINE_RETRY,
        uniform_random(32, 128, seed=5),
        WIRE_DROP,
        {"seed": 7, "breaker": _hair_trigger()},
    ),
    "online-timeout": (
        ONLINE_RETRY,
        hotspot(32, 128, fraction=0.5, seed=9),
        None,
        {"seed": 1, "max_cycles": 5},
    ),
    # -- bit-serial switch model (run_until_delivered / run_chaos_switchsim)
    "switch-ideal": (
        SWITCHSIM,
        uniform_random(32, 128, seed=8),
        None,
        {"seed": 1},
    ),
    "switch-pippenger": (
        SWITCHSIM,
        hotspot(32, 96, fraction=0.3, seed=9),
        None,
        {"seed": 2, "concentrators": "pippenger"},
    ),
    "switch-faulty-jitter": (
        SWITCHSIM,
        uniform_random(32, 96, seed=10),
        None,
        {
            "seed": 3,
            "concentrators": "faulty",
            "fault_rate": 0.2,
            "backoff": BackoffPolicy(base=1, cap=8, jitter_seed=5),
        },
    ),
    "switch-timeout": (
        SWITCHSIM,
        uniform_random(32, 96, seed=11),
        None,
        {"seed": 4, "concentrators": "faulty", "fault_rate": 0.5, "max_cycles": 4},
    ),
    "switch-chaos-park": (
        SWITCHSIM,
        uniform_random(32, 96, seed=1),
        KILL_REPAIR,
        {"seed": 5},
    ),
    "switch-chaos-drop": (
        SWITCHSIM,
        uniform_random(32, 96, seed=2),
        KILL,
        {"seed": 6},
    ),
    # -- store-and-forward (run_chaos_store_and_forward) --------------------
    "buffered-chaos-park": (
        STORE_AND_FORWARD,
        uniform_random(32, 96, seed=1),
        KILL_REPAIR,
        {},
    ),
    "buffered-chaos-drop": (
        STORE_AND_FORWARD,
        uniform_random(32, 96, seed=2),
        KILL,
        {},
    ),
}

_HEALTHY = {
    ONLINE_RETRY: simulate_online_retry,
    SWITCHSIM: run_until_delivered,
}
_CHAOS = {
    RANDOM_RANK: run_chaos_random_rank,
    ONLINE_RETRY: run_chaos_online_retry,
    SWITCHSIM: run_chaos_switchsim,
    STORE_AND_FORWARD: run_chaos_store_and_forward,
}


def _digest(value) -> str:
    return hashlib.blake2b(
        json.dumps(value).encode(), digest_size=8
    ).hexdigest()


def _stats(rows) -> list[list[int]]:
    return [
        [s.in_flight, s.delivered, s.congested, s.retried, s.deferred, s.dropped]
        for s in rows
    ]


def _pairs(frames) -> list[list[int]]:
    return [[f.src, f.dst] for f in frames]


def fingerprint(name: str) -> dict:
    """The pinned view of one scenario's run."""
    loop, messages, events, kwargs = SCENARIOS[name]
    obs = Obs(enabled=True)
    try:
        if events is None:
            result = _HEALTHY[loop](FT, messages, obs=obs, **kwargs)
        else:
            result = _CHAOS[loop](
                FT, messages, ChaosSchedule(events), obs=obs, **kwargs
            )
    except DeliveryTimeout as exc:
        return {
            "timeout_cycle": exc.cycles,
            "undelivered": len(exc.undelivered),
            "undelivered_digest": _digest(sorted(map(list, exc.undelivered))),
            "attempts": sorted(exc.attempts.items()),
        }
    if isinstance(result, Schedule):
        result.validate(FT, messages)
        pairs = [list(zip(c.src.tolist(), c.dst.tolist())) for c in result.cycles]
        dropped = (
            []
            if result.dropped is None
            else sorted(
                zip(result.dropped.src.tolist(), result.dropped.dst.tolist())
            )
        )
        view = {"cycles": result.num_cycles, "cycles_digest": _digest(pairs)}
    elif loop == SWITCHSIM:
        reports = [
            [
                _pairs(r.delivered),
                _pairs(r.congested),
                _pairs(r.deferred),
                r.wave_ticks,
            ]
            for r in result.reports
        ]
        dropped = sorted(map(list, result.dropped))
        view = {
            "cycles": result.cycles,
            "cycles_digest": _digest(reports),
            "attempts": sorted(result.attempt_histogram().items()),
        }
    else:  # store-and-forward
        dropped = sorted(map(list, result.dropped))
        view = {
            "cycles": result.makespan,
            "cycles_digest": _digest(result.latencies.tolist()),
            "max_queue_depth": result.max_queue_depth,
        }
    stats = _stats(result.cycle_stats)
    view.update(
        {
            "stats_totals": [sum(col) for col in zip(*stats)],
            "stats_digest": _digest(stats),
            "dropped": len(dropped),
            "dropped_digest": _digest(dropped),
            "breaker_trips": obs.metrics.counter_value(
                "breaker.transition", from_state="closed", to_state="open"
            ),
        }
    )
    return view


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
    "buffered-chaos-drop": {
        "cycles": 11,
        "cycles_digest": "df39b30c3efad5bb",
        "max_queue_depth": 6,
        "stats_totals": [400, 30, 0, 0, 307, 63],
        "stats_digest": "b857f53fcd56b482",
        "dropped": 63,
        "dropped_digest": "383ec085956286a1",
        "breaker_trips": 0,
    },
    "buffered-chaos-park": {
        "cycles": 15,
        "cycles_digest": "89bff6d2888b8748",
        "max_queue_depth": 14,
        "stats_totals": [926, 94, 0, 0, 832, 0],
        "stats_digest": "7d44b7aea1e17b0a",
        "dropped": 0,
        "dropped_digest": "71857576257465c7",
        "breaker_trips": 0,
    },
    "online-breaker-trip": {
        "cycles": 24,
        "cycles_digest": "ce3de83000ac8e32",
        "stats_totals": [906, 126, 102, 154, 524, 0],
        "stats_digest": "a5ec361dd2d61fdd",
        "dropped": 0,
        "dropped_digest": "71857576257465c7",
        "breaker_trips": 108,
    },
    "online-healthy": {
        "cycles": 38,
        "cycles_digest": "0bdba9cfb5887432",
        "stats_totals": [],
        "stats_digest": "71857576257465c7",
        "dropped": 0,
        "dropped_digest": "71857576257465c7",
        "breaker_trips": 0,
    },
    "online-kill-drop": {
        "cycles": 5,
        "cycles_digest": "74bbcd9b27234e8b",
        "stats_totals": [218, 65, 70, 55, 0, 28],
        "stats_digest": "8de4ce69be47ba5a",
        "dropped": 28,
        "dropped_digest": "43aa608c6f569369",
        "breaker_trips": 0,
    },
    "online-kill-repair-park": {
        "cycles": 11,
        "cycles_digest": "fe611be0f0c191e5",
        "stats_totals": [358, 94, 67, 53, 144, 0],
        "stats_digest": "ada9c615af8e5cca",
        "dropped": 0,
        "dropped_digest": "71857576257465c7",
        "breaker_trips": 1,
    },
    "online-timeout": {
        "attempts": [(5, 62)],
        "timeout_cycle": 5,
        "undelivered": 62,
        "undelivered_digest": "9ed1e332ffe84871",
    },
    "switch-chaos-drop": {
        "cycles": 5,
        "cycles_digest": "a53879dc22121b66",
        "attempts": [(0, 36), (1, 44), (2, 15), (3, 1)],
        "stats_totals": [238, 48, 23, 6, 113, 48],
        "stats_digest": "de1c272eb74f3134",
        "dropped": 48,
        "dropped_digest": "bc0fa02c2baceb23",
        "breaker_trips": 0,
    },
    "switch-chaos-park": {
        "cycles": 14,
        "cycles_digest": "b513e90571a2782e",
        "attempts": [(1, 74), (2, 16), (3, 1), (4, 3), (5, 2)],
        "stats_totals": [446, 96, 22, 13, 315, 0],
        "stats_digest": "0bc63d86ed2a4d7d",
        "dropped": 0,
        "dropped_digest": "71857576257465c7",
        "breaker_trips": 3,
    },
    "switch-faulty-jitter": {
        "cycles": 99,
        "cycles_digest": "90aa66eac2b9f5d7",
        "attempts": [(1, 26), (2, 17), (3, 9), (4, 9), (5, 4), (6, 4), (7, 4), (8, 1), (9, 5), (10, 3), (11, 3), (12, 2), (14, 1), (15, 3), (18, 1), (19, 1), (22, 2), (23, 1)],
        "stats_totals": [],
        "stats_digest": "71857576257465c7",
        "dropped": 0,
        "dropped_digest": "71857576257465c7",
        "breaker_trips": 0,
    },
    "switch-ideal": {
        "cycles": 14,
        "cycles_digest": "27f4b2271cbbc874",
        "attempts": [(1, 96), (2, 16), (3, 9), (4, 3), (5, 2), (6, 1), (7, 1)],
        "stats_totals": [],
        "stats_digest": "71857576257465c7",
        "dropped": 0,
        "dropped_digest": "71857576257465c7",
        "breaker_trips": 0,
    },
    "switch-pippenger": {
        "cycles": 36,
        "cycles_digest": "8f350e272f052bef",
        "attempts": [(1, 42), (2, 13), (3, 8), (4, 8), (5, 3), (6, 4), (8, 1), (9, 1), (11, 3), (12, 1), (13, 3), (17, 2), (18, 1), (20, 1), (22, 2), (24, 1), (28, 1), (29, 1)],
        "stats_totals": [],
        "stats_digest": "71857576257465c7",
        "dropped": 0,
        "dropped_digest": "71857576257465c7",
        "breaker_trips": 0,
    },
    "switch-timeout": {
        "attempts": [(0, 41), (1, 20), (2, 2), (3, 25), (4, 4)],
        "timeout_cycle": 4,
        "undelivered": 92,
        "undelivered_digest": "188bb1a614a07bd5",
    },

}

#: ``test_parked_past_budget_times_out_early``: the pairs and attempt
#: histograms were recorded when these loops still idled to the budget
#: and raised at cycle 30; the shared livelock rule raises the same
#: refusal at the first cycle in which every pending row is parked
PARKED_TIMEOUT = {
    ONLINE_RETRY: {
        "timeout_cycle": 9,
        "undelivered": 33,
        "undelivered_digest": "65391b0b5e1df915",
        "attempts": [(1, 33)],
    },
    SWITCHSIM: {
        "timeout_cycle": 9,
        "undelivered": 43,
        "undelivered_digest": "0bb4225ff35b026d",
        "attempts": [(0, 34), (1, 9)],
    },
}


def _names(loop):
    return sorted(name for name, spec in SCENARIOS.items() if spec[0] == loop)


@pytest.mark.parametrize("name", _names(RANDOM_RANK))
def test_chaos_random_rank_output_is_pinned(name):
    assert fingerprint(name) == PINNED[name]


@pytest.mark.parametrize("name", _names(ONLINE_RETRY))
def test_online_retry_output_is_pinned(name):
    assert fingerprint(name) == PINNED[name]


@pytest.mark.parametrize("name", _names(SWITCHSIM))
def test_switchsim_output_is_pinned(name):
    assert fingerprint(name) == PINNED[name]


@pytest.mark.parametrize("name", _names(STORE_AND_FORWARD))
def test_store_and_forward_output_is_pinned(name):
    assert fingerprint(name) == PINNED[name]


def test_scenarios_cover_every_recovery_path():
    """The timelines above really exercise park, drop, loss, breakers
    and the abort (guards the pins against a vacuous scenario)."""
    for park, drop in (
        ("kill-repair-park", "kill-drop"),
        ("online-kill-repair-park", "online-kill-drop"),
        ("switch-chaos-park", "switch-chaos-drop"),
        ("buffered-chaos-park", "buffered-chaos-drop"),
    ):
        assert PINNED[park]["dropped"] == 0 and PINNED[park]["stats_totals"][4] > 0
        assert PINNED[drop]["dropped"] > 0
    assert PINNED["loss-flips"]["stats_totals"][3] > 0  # retried
    assert PINNED["breaker-trip"]["breaker_trips"] > 0
    assert PINNED["online-breaker-trip"]["breaker_trips"] > 0
    assert PINNED["raise"]["undelivered"] > 0
    for name in ("online-timeout", "switch-timeout"):
        assert PINNED[name]["undelivered"] > 0
    # the faulty-switch run really backs off (some message retried)
    assert max(k for k, _ in PINNED["switch-faulty-jitter"]["attempts"]) > 1


def test_online_breaker_scenario_holds_back_every_pending_row(monkeypatch):
    """Some cycle of ``online-breaker-trip`` has every pending row held
    back by a breaker: that cycle still shuffles the carried order, so
    the pin covers the shuffle-when-all-blocked path."""
    seen = []
    real = ChaosController.breaker_blocked

    def spy(self, index, eligible, t):
        mask = real(self, index, eligible, t)
        if eligible.size and mask.all():
            seen.append(t)
        return mask

    monkeypatch.setattr(ChaosController, "breaker_blocked", spy)
    fingerprint("online-breaker-trip")
    assert seen


#: every row still in flight is parked behind a repair at cycle 500
PARKED_PAST_BUDGET = (
    _ev(1, "switch-kill", level=0, index=0),
    _ev(500, "switch-repair", level=0, index=0),
)


@pytest.mark.parametrize("loop", [ONLINE_RETRY, SWITCHSIM])
def test_parked_past_budget_times_out_early(loop):
    """Once every pending row is parked past ``max_cycles`` no delivery
    can happen within the budget: the loop raises the same
    :class:`DeliveryTimeout` (pairs and attempt histogram) as it would
    at the budget, without idling through the empty cycles."""
    with pytest.raises(DeliveryTimeout) as info:
        _CHAOS[loop](
            FT,
            uniform_random(32, 96, seed=12),
            ChaosSchedule(PARKED_PAST_BUDGET),
            seed=1,
            max_cycles=30,
        )
    exc = info.value
    expected = PARKED_TIMEOUT[loop]
    assert exc.cycles == expected["timeout_cycle"] < 30
    assert len(exc.undelivered) == expected["undelivered"]
    assert _digest(sorted(map(list, exc.undelivered))) == expected["undelivered_digest"]
    assert sorted(exc.attempts.items()) == expected["attempts"]
