"""Tests for the baseline schedulers."""

import math
from collections import Counter

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
    load_factor,
    schedule_greedy_first_fit,
    simulate_online_retry,
)


class TestFirstFit:
    def test_valid_schedule(self):
        ft = FatTree(32)
        rng = np.random.default_rng(0)
        m = MessageSet(rng.integers(0, 32, 300), rng.integers(0, 32, 300), 32)
        sched = schedule_greedy_first_fit(ft, m)
        sched.validate(ft, m)
        assert sched.num_cycles >= math.ceil(load_factor(ft, m))

    def test_permutation_packs_to_one_cycle(self):
        ft = FatTree(32)
        m = MessageSet.from_permutation(np.random.default_rng(1).permutation(32))
        assert schedule_greedy_first_fit(ft, m).num_cycles == 1

    def test_orders(self):
        ft = FatTree(16, ConstantCapacity(4, 1))
        rng = np.random.default_rng(2)
        m = MessageSet(rng.integers(0, 16, 60), rng.integers(0, 16, 60), 16)
        for order in ("given", "random", "longest-first"):
            sched = schedule_greedy_first_fit(ft, m, order=order)
            sched.validate(ft, m)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            schedule_greedy_first_fit(
                FatTree(8), MessageSet([0], [1], 8), order="bogus"
            )

    def test_empty(self):
        sched = schedule_greedy_first_fit(FatTree(8), MessageSet.empty(8))
        assert sched.num_cycles == 0


class TestOnlineRetry:
    def test_valid_schedule(self):
        ft = FatTree(32, UniversalCapacity(32, 16, strict=False))
        rng = np.random.default_rng(3)
        m = MessageSet(rng.integers(0, 32, 200), rng.integers(0, 32, 200), 32)
        sched = simulate_online_retry(ft, m)
        sched.validate(ft, m)

    def test_deterministic_given_seed(self):
        ft = FatTree(16)
        rng = np.random.default_rng(4)
        m = MessageSet(rng.integers(0, 16, 100), rng.integers(0, 16, 100), 16)
        a = simulate_online_retry(ft, m, seed=9)
        b = simulate_online_retry(ft, m, seed=9)
        assert [list(c) for c in a] == [list(c) for c in b]

    def test_max_cycles_guard(self):
        ft = FatTree(8, ConstantCapacity(3, 1))
        m = MessageSet([0] * 10, [7] * 10, 8)
        with pytest.raises(DeliveryTimeout) as excinfo:
            simulate_online_retry(ft, m, max_cycles=3)
        # one wire per channel: one delivery per cycle, and every
        # pending message attempted in each of the three cycles
        exc = excinfo.value
        assert exc.cycles == 3
        assert exc.undelivered == [(0, 7)] * 7
        assert exc.attempts == Counter({3: 7})

    def test_every_cycle_nonwasteful(self):
        """Each cycle delivers at least one message (progress guarantee)."""
        ft = FatTree(16, ConstantCapacity(4, 1))
        rng = np.random.default_rng(5)
        m = MessageSet(rng.integers(0, 16, 80), rng.integers(0, 16, 80), 16)
        sched = simulate_online_retry(ft, m)
        assert all(len(c) >= 1 for c in sched)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60))
def test_baselines_agree_on_message_multiset(pairs):
    ft = FatTree(16)
    m = MessageSet.from_pairs(pairs, 16)
    for sched in (
        schedule_greedy_first_fit(ft, m),
        simulate_online_retry(ft, m, seed=1),
    ):
        sched.validate(ft, m)
