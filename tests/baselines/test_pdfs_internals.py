"""White-box tests of the CPU PDFS protocol internals (CKL vs ACR)."""

import numpy as np
import pytest

from repro.baselines.pdfs_cpu import (
    CPU_SCAN_WIDTH,
    _acr_idle,
    _acr_service,
    _ckl_steal,
    _CpuRunState,
    _drain,
    run_acr_pdfs,
    run_ckl_pdfs,
)
from repro.errors import SimulationError
from repro.graphs import generators as gen
from repro.sim.device import XEON_MAX_9462
from repro.sim.engine import over_budget_error
from repro.utils.fastrand import BoundedDraws


def make_state(graph, cores=4, root=0, seed=1):
    return _CpuRunState(graph, root, cores, XEON_MAX_9462, seed)


class TestCklProtocol:
    def test_steal_takes_half_from_oldest_end(self):
        g = gen.path_graph(64)
        state = make_state(g, cores=2)
        # Hand-build a victim deque of 8 entries on core 0.
        state.deques[0] = [[v, 0] for v in range(10, 18)]
        # A stream of known draws, in place of the core's own.
        state.rngs[1] = BoundedDraws(np.random.PCG64(0))
        for _ in range(20):
            if state.deques[1]:
                break
            _ckl_steal(state, 1)
        assert state.deques[1], "thief never stole"
        stolen = [v for v, _ in state.deques[1]]
        assert stolen == list(range(10, 14))       # oldest half
        assert [v for v, _ in state.deques[0]] == list(range(14, 18))

    def test_steal_is_adaptive(self):
        """The amount scales with the victim's deque (steal-half)."""
        g = gen.path_graph(64)
        for size, expected in ((2, 1), (8, 4), (20, 10)):
            state = make_state(g, cores=2)
            state.deques[0] = [[v, 0] for v in range(size)]
            state.rngs[1] = BoundedDraws(np.random.PCG64(0))
            for _ in range(30):
                if state.deques[1]:
                    break
                _ckl_steal(state, 1)
            assert len(state.deques[1]) == expected

    def test_no_steal_from_singleton(self):
        g = gen.path_graph(8)
        state = make_state(g, cores=2)
        # Core 0 holds only the root entry: not a valid victim.
        for _ in range(10):
            _ckl_steal(state, 1)
        assert not state.deques[1]


class TestAcrProtocol:
    def test_request_then_donate_then_collect(self):
        g = gen.path_graph(64)
        state = make_state(g, cores=2)
        state.deques[0] = [[v, 0] for v in range(10, 18)]
        state.rngs[1] = BoundedDraws(np.random.PCG64(0))
        # 1. Thief posts a request.
        for _ in range(10):
            if state.requests[0] is not None:
                break
            _acr_idle(state, 1)
        assert state.requests[0] == 1
        # 2. Victim services it on its next step (donates half).
        _acr_service(state, 0)
        assert state.requests[0] is None
        assert state.mailboxes[1] is not None
        assert [v for v, _ in state.mailboxes[1]] == list(range(10, 14))
        # 3. Thief collects the donation.
        _acr_idle(state, 1)
        assert state.mailboxes[1] is None
        assert [v for v, _ in state.deques[1]] == list(range(10, 14))

    def test_victim_declines_when_too_small(self):
        g = gen.path_graph(8)
        state = make_state(g, cores=2)
        state.requests[0] = 1        # pending request, deque has 1 entry
        _acr_service(state, 0)
        assert state.requests[0] is None     # cleared
        assert state.mailboxes[1] is None    # but nothing donated

    def test_stale_request_on_idle_victim_cleared(self):
        g = gen.path_graph(8)
        state = make_state(g, cores=2, root=0)
        state.deques[0].clear()
        state.requests[0] = 1
        _acr_service(state, 0)
        assert state.requests[0] is None

    def test_one_outstanding_request_per_victim(self):
        g = gen.path_graph(64)
        state = make_state(g, cores=3)
        state.deques[0] = [[v, 0] for v in range(10, 18)]
        state.requests[0] = 2        # core 2 already asked
        state.rngs[1] = BoundedDraws(np.random.PCG64(0))
        for _ in range(10):
            _acr_idle(state, 1)
        assert state.requests[0] == 2  # never overwritten


class TestScanWindow:
    def test_cpu_scan_width(self):
        assert CPU_SCAN_WIDTH == 8

    def test_wide_rows_take_multiple_steps(self):
        g = gen.star_graph(40)  # hub degree 39
        state = make_state(g, cores=1)
        # A zero budget stops the drain after the steps at time 0: the
        # first window claims the leaf at offset 0.
        with pytest.raises(SimulationError):
            _drain(state, "ckl", max_cycles=0)
        assert state.counters.edges_traversed == 1
        # Hub entry's offset advanced by exactly one claim.
        assert state.deques[0][0][0] == 0  # hub still at the bottom


class TestDrainGuards:
    def test_over_budget_raises_the_engine_message(self):
        g = gen.star_graph(40)
        state = make_state(g, cores=1)
        c = XEON_MAX_9462.costs
        # The hub's first step: an 8-neighbour window (two lines), the
        # row open, and the claim of the first leaf.
        first = (c.visit_base + 2 * c.visit_per_line + c.row_open
                 + c.visited_cas + c.push)
        with pytest.raises(SimulationError) as exc:
            _drain(state, "ckl", max_cycles=0)
        assert str(exc.value) == str(over_budget_error(0, first, 1))


class TestEndToEndAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_protocols_agree_on_visited(self, seed):
        g = gen.co_purchase(500, seed=seed)
        a = run_ckl_pdfs(g, 0, cores=6, seed=seed)
        b = run_acr_pdfs(g, 0, cores=6, seed=seed)
        assert np.array_equal(a.traversal.visited, b.traversal.visited)
