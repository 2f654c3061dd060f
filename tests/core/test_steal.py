"""Unit tests for intra- and inter-block stealing (paper §3.4/§3.5)."""

import numpy as np
import pytest

from repro.core import inter_steal, intra_steal
from repro.core.config import DiggerBeesConfig
from repro.core.state import RunState
from repro.graphs import generators as gen
from repro.sim.device import H100
from repro.utils.fastrand import BoundedDraws


def leader_rng(seed):
    """A leader warp's victim-draw stream, as ``WarpAgent`` builds it."""
    return BoundedDraws(np.random.PCG64(seed))


def make_state(n_blocks=2, warps_per_block=3, hot_cutoff=4, cold_cutoff=4,
               **kwargs):
    g = gen.path_graph(64)
    cfg = DiggerBeesConfig(n_blocks=n_blocks, warps_per_block=warps_per_block,
                           hot_size=16, hot_cutoff=hot_cutoff,
                           cold_cutoff=cold_cutoff, flush_batch=4,
                           refill_batch=4, **kwargs)
    return RunState(g, 0, cfg, H100)


def fill_hot(state, block, warp, count, start=1):
    """Push `count` synthetic entries into a warp's HotRing."""
    stack = state.blocks[block].stacks[warp]
    for i in range(count):
        stack.hot.push(start + i, 0)
    state.blocks[block].set_active(warp, True)


def fill_cold(state, block, warp, count, start=1):
    stack = state.blocks[block].stacks[warp]
    stack.cold.push_batch(list(range(start, start + count)), [0] * count)
    state.blocks[block].set_active(warp, True)


class TestIntraSelection:
    def test_picks_max_rest(self):
        state = make_state()
        fill_hot(state, 0, 1, 5)
        fill_hot(state, 0, 2, 9)
        plan = intra_steal.select_victim(state, state.blocks[0], thief_warp=0)
        assert plan.victim_warp == 2
        assert plan.observed_rest == 9

    def test_respects_cutoff(self):
        state = make_state(hot_cutoff=8)
        fill_hot(state, 0, 1, 5)  # below cutoff
        assert intra_steal.select_victim(state, state.blocks[0], 0) is None

    def test_skips_self(self):
        state = make_state()
        fill_hot(state, 0, 0, 9)
        # Warp 0 scanning must not select itself even if it is the max.
        assert intra_steal.select_victim(state, state.blocks[0], 0) is None

    def test_records_observed_tail(self):
        state = make_state()
        fill_hot(state, 0, 1, 6)
        plan = intra_steal.select_victim(state, state.blocks[0], 0)
        assert plan.observed_tail == state.blocks[0].stacks[1].hot.tail


class TestSlabReads:
    def test_one_level_pointer_pairs_live_in_the_hot_slab(self):
        """The v1 stack keeps its segment's ``(top, bottom)`` where a
        HotRing keeps ``(head, tail)``, so the slab-reading search sees
        its occupancy and its steal token."""
        state = make_state(n_blocks=1, two_level=False)
        block = state.blocks[0]
        fill_hot(state, 0, 1, 7, start=100)
        fill_hot(state, 0, 2, 5, start=200)
        plan = intra_steal.select_victim(state, block, 0)
        assert plan.victim_warp == 1
        assert intra_steal.execute_steal(state, block, 0, plan)
        slab = state.hot_ptr_slab
        for w, stack in enumerate(block.stacks):
            seg = stack._seg
            assert slab[2 * w:2 * w + 2] == [seg.top, seg.bottom]
        assert slab[2:4] == [7, 2]  # warp 1 after losing two entries
        # Warps 1 and 2 now tie at five entries: the first wins.
        plan = intra_steal.select_victim(state, block, 0)
        victim = block.stacks[plan.victim_warp]
        assert plan.victim_warp == 1
        assert plan.observed_rest == len(victim) == 5
        assert plan.observed_tail == victim.hot.tail == 2


class TestIntraExecution:
    def test_successful_steal_moves_oldest(self):
        state = make_state(hot_cutoff=4)
        fill_hot(state, 0, 1, 6, start=100)
        # Warp 2 is the thief (warp 0 holds the root entry).
        plan = intra_steal.select_victim(state, state.blocks[0], 2)
        assert intra_steal.execute_steal(state, state.blocks[0], 2, plan)
        thief = state.blocks[0].stacks[2]
        assert [v for v, _ in thief.hot.snapshot()] == [100, 101]  # amount = 2
        assert len(state.blocks[0].stacks[1].hot) == 4
        assert state.blocks[0].is_active(2)
        assert state.counters.intra_steal_successes == 1

    def test_cas_failure_when_tail_moved(self):
        """Figure 3(a): Warp2's reservation fails after Warp1 moved the tail."""
        state = make_state(hot_cutoff=4)
        fill_hot(state, 0, 2, 8)
        block = state.blocks[0]
        plan_w0 = intra_steal.select_victim(state, block, 0)
        plan_w1 = intra_steal.select_victim(state, block, 1)
        assert intra_steal.execute_steal(state, block, 0, plan_w0)
        # Warp1's observation is stale; its CAS must fail.
        assert not intra_steal.execute_steal(state, block, 1, plan_w1)
        assert state.counters.cas_failures >= 1

    def test_fails_when_victim_dropped_below_cutoff(self):
        state = make_state(hot_cutoff=4)
        fill_hot(state, 0, 1, 4)
        block = state.blocks[0]
        plan = intra_steal.select_victim(state, block, 0)
        # Victim pops entries (tail unchanged -> CAS would pass, rest check fails).
        block.stacks[1].hot.pop()
        block.stacks[1].hot.pop()
        assert not intra_steal.execute_steal(state, block, 0, plan)

    def test_entry_conservation(self):
        state = make_state(hot_cutoff=4)
        fill_hot(state, 0, 1, 7)
        before = sum(len(s) for s in state.blocks[0].stacks)
        plan = intra_steal.select_victim(state, state.blocks[0], 0)
        intra_steal.execute_steal(state, state.blocks[0], 0, plan)
        after = sum(len(s) for s in state.blocks[0].stacks)
        assert before == after


class TestInterSelection:
    def test_requires_active_block(self):
        state = make_state(n_blocks=3)
        # No block active (beyond root setup in block 0) -> clear it.
        state.blocks[0].set_active(0, False)
        plan = inter_steal.select_victim(state, 1, leader_rng(1))
        assert plan is None

    def test_picks_fullest_cold_warp(self):
        state = make_state(n_blocks=2, cold_cutoff=4)
        fill_cold(state, 0, 1, 5)
        fill_cold(state, 0, 2, 9)
        plan = inter_steal.select_victim(state, 1, leader_rng(1))
        assert plan is not None
        assert plan.victim_block == 0
        assert plan.victim_warp == 2

    def test_respects_cold_cutoff(self):
        state = make_state(n_blocks=2, cold_cutoff=8)
        fill_cold(state, 0, 1, 5)
        assert inter_steal.select_victim(state, 1, leader_rng(1)) is None

    def test_never_selects_own_block(self):
        state = make_state(n_blocks=2, cold_cutoff=4)
        fill_cold(state, 1, 0, 9)
        # Block 1 asking: only block 0 qualifies as other, but it's idle-ish.
        state.blocks[0].set_active(0, False)
        plan = inter_steal.select_victim(state, 1, leader_rng(1))
        assert plan is None

    def test_two_choice_prefers_heavier(self):
        state = make_state(n_blocks=4, cold_cutoff=4)
        fill_cold(state, 0, 0, 5)
        fill_cold(state, 2, 0, 50)
        rng = leader_rng(7)
        picks = [inter_steal.select_victim(state, 3, rng).victim_block
                 for _ in range(20)]
        # Load-aware two-choice must prefer the heavy block when both sampled.
        assert picks.count(2) > picks.count(0)


class TestInterExecution:
    def test_successful_steal(self):
        state = make_state(n_blocks=2, cold_cutoff=4)
        fill_cold(state, 0, 1, 8, start=200)
        plan = inter_steal.select_victim(state, 1, leader_rng(1))
        assert inter_steal.execute_steal(state, 1, 0, plan)
        thief = state.blocks[1].stacks[0]
        assert [v for v, _ in thief.hot.snapshot()] == [200, 201]  # amount 2
        assert len(state.blocks[0].stacks[1].cold) == 6
        assert state.blocks[1].is_active(0)

    def test_cas_failure_on_moved_bottom(self):
        state = make_state(n_blocks=3, cold_cutoff=4)
        fill_cold(state, 0, 1, 8)
        plan_a = inter_steal.select_victim(state, 1, leader_rng(1))
        plan_b = inter_steal.select_victim(state, 2, leader_rng(2))
        assert plan_a.victim_block == plan_b.victim_block == 0
        assert inter_steal.execute_steal(state, 1, 0, plan_a)
        assert not inter_steal.execute_steal(state, 2, 0, plan_b)
        assert state.counters.inter_steal_successes == 1

    def test_entry_conservation(self):
        state = make_state(n_blocks=2, cold_cutoff=4)
        fill_cold(state, 0, 1, 8)
        before = state.total_entries()
        plan = inter_steal.select_victim(state, 1, leader_rng(1))
        inter_steal.execute_steal(state, 1, 0, plan)
        assert state.total_entries() == before
