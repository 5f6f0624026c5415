"""Tests for the Fig. 3 node logic and the delivery-cycle simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstantCapacity,
    DeliveryTimeout,
    FatTree,
    MessageSet,
    UniversalCapacity,
    is_one_cycle,
    schedule_corollary2,
    schedule_theorem1,
    ScaledCapacity,
)
from repro.hardware import (
    BitSerialMessage,
    Port,
    concentrate,
    run_delivery_cycle,
    run_schedule,
    run_until_delivered,
    select_output,
)


class TestSelector:
    def test_climb_from_left(self):
        m = BitSerialMessage.make(0, 7, 3)  # first bit 1: climb
        assert select_output(Port.L0, m) is Port.U

    def test_turn_at_lca(self):
        m = BitSerialMessage.make(2, 3, 3)  # single turn bit
        assert select_output(Port.L0, m) is Port.L1
        m2 = BitSerialMessage.make(3, 2, 3)
        assert select_output(Port.L1, m2) is Port.L0

    def test_descend(self):
        m = BitSerialMessage(src=0, dst=5, address=[1], payload=())
        assert select_output(Port.U, m) is Port.L1
        m0 = BitSerialMessage(src=0, dst=4, address=[0], payload=())
        assert select_output(Port.U, m0) is Port.L0


class TestConcentrate:
    def test_no_congestion_no_loss(self):
        msgs = [BitSerialMessage.make(i, 7, 3) for i in range(3)]
        winners, losers = concentrate(msgs, 3)
        assert winners == msgs and losers == []

    def test_congestion_drops_excess(self):
        msgs = [BitSerialMessage.make(i, 7, 3) for i in range(5)]
        winners, losers = concentrate(msgs, 2)
        assert len(winners) == 2 and len(losers) == 3

    def test_randomised_arbitration(self):
        msgs = [BitSerialMessage.make(i, 7, 3) for i in range(6)]
        rng = np.random.default_rng(0)
        winners, _ = concentrate(msgs, 2, rng=rng)
        assert len(winners) == 2

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            concentrate([], -1)


class TestDeliveryCycle:
    def test_permutation_on_full_tree_no_losses(self):
        ft = FatTree(32)
        m = MessageSet.from_permutation(np.random.default_rng(0).permutation(32))
        r = run_delivery_cycle(ft, m)
        assert len(r.delivered) == 32 and r.losses == 0

    def test_wave_ticks_is_o_log_n(self):
        """One delivery cycle takes O(lg n) switch traversals (§II)."""
        for n in (8, 64, 512):
            ft = FatTree(n)
            m = MessageSet([0], [n - 1], n)
            r = run_delivery_cycle(ft, m)
            assert r.wave_ticks == 2 * ft.depth - 1

    def test_self_messages_delivered_instantly(self):
        ft = FatTree(8)
        r = run_delivery_cycle(ft, MessageSet([3], [3], 8))
        assert len(r.delivered) == 1 and r.wave_ticks == 0

    def test_injection_limit_defers(self):
        """A processor can start at most cap(lg n) messages per cycle."""
        ft = FatTree(8)  # leaf channels have capacity 1
        m = MessageSet([0, 0, 0], [7, 6, 5], 8)
        r = run_delivery_cycle(ft, m)
        assert len(r.delivered) == 1 and len(r.deferred) == 2

    def test_congestion_at_root(self):
        ft = FatTree(8, ConstantCapacity(3, 1))
        m = MessageSet([0, 1], [4, 5], 8)  # both need the root-left up wire?
        r = run_delivery_cycle(ft, m)
        # both climb through the level-1 up channel of node (1,0): cap 1
        assert len(r.delivered) == 1 and len(r.congested) == 1

    def test_messages_delivered_to_correct_leaves(self):
        ft = FatTree(64)
        rng = np.random.default_rng(1)
        m = MessageSet.from_permutation(rng.permutation(64))
        r = run_delivery_cycle(ft, m)
        got = sorted((d.src, d.dst) for d in r.delivered)
        assert got == sorted(m)

    def test_payload_carried(self):
        ft = FatTree(8)
        r = run_delivery_cycle(ft, MessageSet([0], [5], 8), payload_bits=16)
        assert r.delivered[0].payload == (0,) * 16
        assert r.cycle_bit_time() == r.wave_ticks + 1 + 16

    def test_pippenger_mode_reduces_capacity(self):
        ft = FatTree(8, ConstantCapacity(3, 4))
        m = MessageSet([0, 1, 2, 3], [4, 5, 6, 7], 8)
        ideal = run_delivery_cycle(ft, m, concentrators="ideal")
        partial = run_delivery_cycle(ft, m, concentrators="pippenger")
        assert ideal.losses == 0
        assert partial.losses == 1  # floor(0.75 * 4) = 3 survive

    def test_unknown_concentrator_model(self):
        with pytest.raises(ValueError):
            run_delivery_cycle(FatTree(8), MessageSet.empty(8), concentrators="x")

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            run_delivery_cycle(FatTree(8), MessageSet([0], [1], 16))


class TestRetryLoop:
    def test_hotspot_retries_until_done(self):
        n = 16
        ft = FatTree(n)
        m = MessageSet(list(range(1, n)), [0] * (n - 1), n)
        out = run_until_delivered(ft, m, seed=3)
        # the single leaf wire into processor 0 admits one message/cycle
        assert out.cycles == n - 1

    def test_random_traffic_converges(self):
        n = 32
        ft = FatTree(n, UniversalCapacity(n, 16, strict=False))
        rng = np.random.default_rng(2)
        m = MessageSet(rng.integers(0, n, 150), rng.integers(0, n, 150), n)
        out = run_until_delivered(ft, m, seed=0)
        assert out.cycles >= 1
        assert sum(len(r.delivered) for r in out.reports) == 150

    def test_max_cycles_guard(self):
        ft = FatTree(8)
        m = MessageSet([0] * 50, [7] * 50, 8)
        with pytest.raises(RuntimeError):
            run_until_delivered(ft, m, max_cycles=3)

    def test_no_progress_is_a_structured_refusal(self, monkeypatch):
        """A loss-free cycle that delivers nothing can never be followed
        by one that does: the loop refuses at once with the pending
        pairs and their attempt histogram."""
        import repro.hardware.switchsim as switchsim

        def all_congested(ft, messages, **kwargs):
            frames = [BitSerialMessage.make(int(s), int(d), ft.depth) for s, d in messages]
            return switchsim.DeliveryReport([], frames, [], 1)

        monkeypatch.setattr(switchsim, "run_delivery_cycle", all_congested)
        m = MessageSet([0, 1, 2], [7, 6, 5], 8)
        with pytest.raises(DeliveryTimeout) as info:
            run_until_delivered(FatTree(8), m)
        exc = info.value
        assert exc.cycles == 0
        assert exc.undelivered == [(0, 7), (1, 6), (2, 5)]
        assert exc.attempts == {1: 3}


class TestScheduleExecution:
    """End-to-end: the scheduling theory meets the switch hardware."""

    def test_theorem1_schedule_routes_clean(self):
        n = 64
        ft = FatTree(n, UniversalCapacity(n, 16))
        rng = np.random.default_rng(4)
        m = MessageSet(rng.integers(0, n, 500), rng.integers(0, n, 500), n)
        sched = schedule_theorem1(ft, m)
        reports = run_schedule(ft, sched)
        assert sum(len(r.delivered) for r in reports) == len(
            m.without_self_messages()
        )

    def test_corollary2_schedule_routes_clean(self):
        n = 32
        base = UniversalCapacity(n, n)
        ft = FatTree(n, ScaledCapacity(base, lambda c: c * 2 * 5))
        rng = np.random.default_rng(5)
        m = MessageSet(rng.integers(0, n, 2000), rng.integers(0, n, 2000), n)
        sched = schedule_corollary2(ft, m)
        run_schedule(ft, sched)

    def test_invalid_schedule_detected(self):
        ft = FatTree(8, ConstantCapacity(3, 1))
        bad = MessageSet([0, 1], [4, 5], 8)
        sched = schedule_theorem1(ft, bad)
        sched.cycles = [bad]  # both messages in one cycle: overload
        with pytest.raises(AssertionError):
            run_schedule(ft, sched)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), max_size=80))
def test_one_cycle_sets_never_lose_property(pairs):
    """The §III contract: if λ(M) <= 1 then a delivery cycle with ideal
    concentrators loses nothing (up to the injection limit, which the
    load factor already covers via the leaf channels)."""
    ft = FatTree(32, UniversalCapacity(32, 8, strict=False))
    m = MessageSet.from_pairs(pairs, 32).without_self_messages()
    if not is_one_cycle(ft, m):
        return
    r = run_delivery_cycle(ft, m)
    assert r.losses == 0
    assert len(r.delivered) == len(m)
