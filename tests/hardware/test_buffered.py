"""Tests for the buffered store-and-forward fat-tree."""

import math
from collections import Counter

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
)
from repro.hardware import run_store_and_forward
from repro.workloads import random_permutation, uniform_random


class TestBasics:
    def test_empty(self):
        run = run_store_and_forward(FatTree(8), MessageSet.empty(8))
        assert run.makespan == 0
        assert run.mean_latency == 0.0

    def test_self_messages_free(self):
        run = run_store_and_forward(FatTree(8), MessageSet([3], [3], 8))
        assert run.makespan == 0

    def test_single_message_latency_is_path_length(self):
        ft = FatTree(16)
        run = run_store_and_forward(ft, MessageSet([0], [15], 16))
        assert run.makespan == 2 * 4  # one hop per channel
        assert run.max_latency == 8

    def test_sibling_message(self):
        ft = FatTree(16)
        run = run_store_and_forward(ft, MessageSet([0], [1], 16))
        assert run.makespan == 2

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            run_store_and_forward(FatTree(8), MessageSet([0], [1], 16))

    def test_step_guard(self):
        ft = FatTree(8, ConstantCapacity(3, 1))
        m = MessageSet([0] * 50, [7] * 50, 8)
        with pytest.raises(RuntimeError):
            run_store_and_forward(ft, m, max_steps=5)

    def test_step_guard_is_a_structured_refusal(self):
        """Past ``max_steps`` the refusal carries the pending pairs, the
        step count and how many hops each pending message completed."""
        ft = FatTree(8, ConstantCapacity(3, 1))
        m = MessageSet([0] * 50, [7] * 50, 8)
        with pytest.raises(DeliveryTimeout) as info:
            run_store_and_forward(ft, m, max_steps=5)
        exc = info.value
        assert exc.cycles == 5
        # one message per step enters the 6-hop path through unit
        # channels: the five that moved are 5, 4, 3, 2 and 1 hops in
        assert exc.undelivered == [(0, 7)] * 50
        assert exc.attempts == Counter({0: 45, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1})


class TestContention:
    def test_serialisation_on_unit_channel(self):
        """k messages over one unit channel take k + path − 1 steps
        (pipelined behind each other)."""
        ft = FatTree(8, ConstantCapacity(3, 1))
        k = 6
        m = MessageSet([0] * k, [1] * k, 8)  # single shared 2-hop path
        run = run_store_and_forward(ft, m)
        assert run.makespan == k + 2 - 1

    def test_makespan_lower_bounds(self):
        ft = FatTree(32, UniversalCapacity(32, 8, strict=False))
        m = uniform_random(32, 300, seed=0)
        run = run_store_and_forward(ft, m)
        lam = load_factor(ft, m)
        assert run.makespan >= math.ceil(lam)
        assert run.makespan >= max(
            2 * ((s ^ d).bit_length()) for s, d in m if s != d
        )

    def test_greedy_is_near_optimal_on_trees(self):
        """Oldest-first store-and-forward on a tree stays within
        congestion + dilation (the classic O(c + d) shape)."""
        for seed in range(5):
            ft = FatTree(64, UniversalCapacity(64, 16))
            m = uniform_random(64, 400, seed=seed)
            run = run_store_and_forward(ft, m)
            lam = load_factor(ft, m)
            # greedy FIFO on a tree: congestion + dilation, with a small
            # constant for the per-queue (not globally oldest) service
            assert run.makespan <= 1.5 * math.ceil(lam) + 2 * ft.depth

    def test_queue_depth_bounded_by_channel_load(self):
        ft = FatTree(16)
        m = MessageSet(list(range(1, 16)), [0] * 15, 16)  # hotspot
        run = run_store_and_forward(ft, m)
        assert run.max_queue_depth <= 15

    def test_wide_channels_cut_makespan(self):
        m = uniform_random(64, 500, seed=1)
        narrow = run_store_and_forward(
            FatTree(64, UniversalCapacity(64, 16)), m
        )
        wide = run_store_and_forward(FatTree(64), m)
        assert wide.makespan <= narrow.makespan

    def test_latencies_recorded_for_all(self):
        ft = FatTree(32)
        m = random_permutation(32, seed=2)
        routable = m.without_self_messages()  # permutations may fix points
        run = run_store_and_forward(ft, m)
        assert run.latencies.shape == (len(routable),)
        assert (run.latencies >= 2).all()
        assert run.max_latency == run.latencies.max()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), max_size=80))
def test_buffered_always_delivers_property(pairs):
    """Every message set is eventually delivered, within the congestion
    + dilation envelope."""
    ft = FatTree(32, UniversalCapacity(32, 8, strict=False))
    m = MessageSet.from_pairs(pairs, 32)
    run = run_store_and_forward(ft, m)
    routable = m.without_self_messages()
    if len(routable) == 0:
        assert run.makespan == 0
        return
    lam = load_factor(ft, m)
    assert run.makespan <= 1.5 * math.ceil(lam) + 2 * ft.depth
