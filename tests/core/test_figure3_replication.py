"""Exact replication of the paper's Figure 3 worked examples.

Figure 3(a): intra-block stealing with hot_cutoff = 2.  Warp0 holds two
entries <b|0> (older) and <a|1> (newer); Warp1 and Warp2 are idle.  Both
select Warp0 (hot_rest = 2 >= cutoff); Warp1's CAS wins, moving tail
0 -> 1 and transferring <b|0>... the figure labels entries <offset|vertex>;
here we keep our <vertex|offset> order.  Warp2 then observes hot_rest =
1 < 2 and fails.

Figure 3(b): inter-block stealing with cold_cutoff = 4.  In Block0,
Warp1's ColdSeg holds 4 entries, Warp2's holds 2.  Idle Block1's leader
warp selects Block0, picks Warp1 (max cold_rest, meets the cutoff),
CASes bottom 0 -> 2, and copies the two oldest entries into its HotRing.
"""

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


@pytest.fixture
def fig3a_state():
    """Block0 with three warps; Warp0 active with 2 entries."""
    g = gen.path_graph(32)
    cfg = DiggerBeesConfig(n_blocks=1, warps_per_block=3, hot_size=8,
                           hot_cutoff=2, cold_cutoff=4, flush_batch=2,
                           refill_batch=2, cold_reserve=8, seed=0)
    state = RunState(g, 0, cfg, H100)
    warp0 = state.blocks[0].stacks[0]
    # Replace the root seeding with the figure's stack: <b|0> then <a|1>.
    warp0.hot.pop()
    b, a = 11, 10
    warp0.hot.push(b, 0)
    warp0.hot.push(a, 1)
    return state


class TestFigure3a:
    def test_step1_both_thieves_select_warp0(self, fig3a_state):
        block = fig3a_state.blocks[0]
        plan1 = intra_steal.select_victim(fig3a_state, block, 1)
        plan2 = intra_steal.select_victim(fig3a_state, block, 2)
        assert plan1.victim_warp == 0 and plan2.victim_warp == 0
        assert plan1.observed_rest == 2
        assert plan1.amount == 1          # hot_cutoff / 2

    def test_step2_warp1_wins_cas(self, fig3a_state):
        block = fig3a_state.blocks[0]
        plan1 = intra_steal.select_victim(fig3a_state, block, 1)
        assert block.stacks[0].hot.tail == 0
        assert intra_steal.execute_steal(fig3a_state, block, 1, plan1)
        # tail 0 -> 1 (the figure's "atomicCAS R0(t=0->1)").
        assert block.stacks[0].hot.tail == 1
        # Warp1 received the oldest entry <b|0> and became active.
        assert block.stacks[1].hot.snapshot() == [(11, 0)]
        assert block.is_active(1)
        assert block.active_mask == 0b011  # mask '100' -> '110' (bit order)

    def test_step3_warp2_fails_and_must_retry(self, fig3a_state):
        """hot_rest(R0) = 2-1 = 1 < 2 -> fail! (the figure's Warp2)."""
        block = fig3a_state.blocks[0]
        plan1 = intra_steal.select_victim(fig3a_state, block, 1)
        plan2 = intra_steal.select_victim(fig3a_state, block, 2)
        intra_steal.execute_steal(fig3a_state, block, 1, plan1)
        assert not intra_steal.execute_steal(fig3a_state, block, 2, plan2)
        # On re-selection Warp0 no longer qualifies.
        assert intra_steal.select_victim(fig3a_state, block, 2) is None


@pytest.fixture
def fig3b_state():
    """Two blocks; Block0's Warp1/Warp2 hold ColdSeg entries (4 and 2)."""
    g = gen.path_graph(64)
    cfg = DiggerBeesConfig(n_blocks=2, warps_per_block=4, hot_size=8,
                           hot_cutoff=2, cold_cutoff=4, flush_batch=2,
                           refill_batch=2, cold_reserve=8, seed=0)
    state = RunState(g, 0, cfg, H100)
    block0 = state.blocks[0]
    # Figure: C1 holds <a|2>,<c|1>,<t|..>,<y|..> (oldest first); C2 holds 2.
    block0.stacks[1].cold.push_batch([20, 22, 24, 26], [2, 1, 0, 0])
    block0.set_active(1, True)
    block0.stacks[2].cold.push_batch([30, 32], [0, 0])
    block0.set_active(2, True)
    # Block1 fully idle.
    return state


class TestFigure3b:
    def test_steps1_2_victim_selection(self, fig3b_state):
        plan = inter_steal.select_victim(fig3b_state, 1, leader_rng(3))
        assert plan is not None
        assert plan.victim_block == 0
        assert plan.victim_warp == 1          # cold_rest 4 >= cutoff beats 2
        assert plan.observed_rest == 4
        assert plan.amount == 2               # cold_cutoff / 2

    def test_steps3_4_reservation_and_transfer(self, fig3b_state):
        plan = inter_steal.select_victim(fig3b_state, 1, leader_rng(3))
        victim_cold = fig3b_state.blocks[0].stacks[1].cold
        assert victim_cold.bottom == 0
        assert inter_steal.execute_steal(fig3b_state, 1, 0, plan)
        # bottom 0 -> 2 ("atomicCAS C1(b=0->2)"), cold_rest 4-2 = 2.
        assert victim_cold.bottom == 2
        assert len(victim_cold) == 2
        # Leader warp's HotRing received <a|2>,<c|1> and head moved to 2.
        leader = fig3b_state.blocks[1].stacks[0]
        assert leader.hot.snapshot() == [(20, 2), (22, 1)]
        assert leader.hot.head == 2
        assert fig3b_state.blocks[1].is_active(0)

    def test_warp2_below_cutoff_never_selected(self, fig3b_state):
        """C2's cold_rest = 2 < 4: even after C1 is drained below the
        cutoff, Warp2 does not qualify."""
        plan = inter_steal.select_victim(fig3b_state, 1, leader_rng(3))
        inter_steal.execute_steal(fig3b_state, 1, 0, plan)
        # C1 now at 2 (< cutoff) and C2 at 2 (< cutoff): no victim.
        assert inter_steal.select_victim(fig3b_state, 1, leader_rng(4)) is None
