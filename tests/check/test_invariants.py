"""Unit tests for the steal-protocol invariant monitor."""

import numpy as np
import pytest

from repro.check import InvariantMonitor
from repro.check.cases import case_from_seed
from repro.core import DiggerBeesConfig, run_diggerbees
from repro.core.state import RunState
from repro.core.twolevel_stack import WarpStack
from repro.errors import InvariantViolation, SimulationError
from repro.graphs import generators as gen
from repro.sim.device import H100

CFG = DiggerBeesConfig(n_blocks=2, warps_per_block=4, hot_size=8,
                       hot_cutoff=2, cold_cutoff=2, flush_batch=2,
                       refill_batch=2, cold_reserve=16, seed=7)


class TestAttach:
    def test_attach_wires_state_and_stacks(self):
        g = gen.path_graph(20)
        state = RunState(g, 0, CFG, H100)
        monitor = InvariantMonitor()
        observer = monitor.attach(state)
        assert callable(observer)
        assert state.monitor is monitor
        for block in state.blocks:
            for warp, stack in enumerate(block.stacks):
                if isinstance(stack, WarpStack):
                    assert stack.monitor is monitor
                    assert stack.owner == (block.block_id, warp)

    def test_check_every_validated(self):
        with pytest.raises(ValueError, match="check_every"):
            InvariantMonitor(check_every=0)


class TestCleanRunCoverage:
    def test_monitored_run_passes_and_covers_protocol(self):
        """A correct run must pass under full monitoring, and the
        monitor must actually have seen steal/flush/refill traffic —
        silence from an unexercised checker proves nothing."""
        g = gen.delaunay_mesh(240, seed=7)
        monitor = InvariantMonitor(check_every=8)
        result = run_diggerbees(g, 0, config=CFG, check_invariants=True,
                                instrument=monitor.attach)
        monitor.final_check()
        assert result.traversal.n_visited == g.n_vertices
        assert monitor.steal_events > 0
        assert monitor.flush_events > 0
        assert monitor.refill_events > 0
        assert monitor.sweeps > 0

    def test_monitoring_does_not_change_schedule(self):
        """The observer is read-only: cycles/steps/tree must be
        bit-identical with and without it."""
        g = gen.road_network(300, seed=7)
        plain = run_diggerbees(g, 0, config=CFG)
        monitor = InvariantMonitor(check_every=16)
        watched = run_diggerbees(g, 0, config=CFG, instrument=monitor.attach)
        assert watched.cycles == plain.cycles
        assert watched.engine.steps == plain.engine.steps
        assert np.array_equal(watched.traversal.parent, plain.traversal.parent)


class TestSweepDetections:
    def _fresh(self, n=40):
        g = gen.path_graph(n)
        state = RunState(g, 0, CFG, H100)
        monitor = InvariantMonitor()
        monitor.attach(state)
        return state, monitor

    def test_unclaimed_stacked_vertex(self):
        state, monitor = self._fresh()
        state.blocks[0].stacks[1].hot.push(7, 0)  # never claimed
        state.pending += 1
        with pytest.raises(InvariantViolation, match="not marked visited"):
            monitor.sweep()

    def test_duplicate_ownership(self):
        state, monitor = self._fresh()
        state.blocks[1].stacks[0].hot.push(0, 0)  # root is already stacked
        state.pending += 1
        with pytest.raises(InvariantViolation, match="owned by two stacks"):
            monitor.sweep()

    def test_pending_drift_lost(self):
        state, monitor = self._fresh()
        state.pending += 2
        with pytest.raises(InvariantViolation, match="lost"):
            monitor.sweep()

    def test_final_check_requires_drained_run(self):
        state, monitor = self._fresh()
        # Remove the root entry physically but leave pending at 1.
        state.blocks[0].stacks[0].hot.take_from_tail(1)
        with pytest.raises(InvariantViolation):
            monitor.final_check()


class TestEventHooks:
    def _monitor(self):
        g = gen.path_graph(10)
        state = RunState(g, 0, CFG, H100)
        monitor = InvariantMonitor()
        monitor.attach(state)
        state.visited[:] = 1  # make the claimed-before-stacked check moot
        return monitor

    def test_token_mismatch_is_linearizability_breach(self):
        monitor = self._monitor()
        with pytest.raises(InvariantViolation, match="linearizability"):
            monitor.on_steal(kind="intra", victim=(0, 0), thief=(0, 1),
                             verts=[1, 2], token_at_commit=5,
                             observed_token=3, amount=2, observed_rest=4)

    def test_over_reservation_rejected(self):
        monitor = self._monitor()
        with pytest.raises(InvariantViolation, match="over-reservation"):
            monitor.on_steal(kind="inter", victim=(0, 0), thief=(1, 0),
                             verts=[1, 2, 3], token_at_commit=0,
                             observed_token=0, amount=3, observed_rest=2)

    def test_unclaimed_stolen_vertex_rejected(self):
        monitor = self._monitor()
        monitor.state.visited[2] = 0
        with pytest.raises(InvariantViolation, match="unclaimed"):
            monitor.on_steal(kind="intra", victim=(0, 0), thief=(0, 1),
                             verts=[2], token_at_commit=0,
                             observed_token=0, amount=1, observed_rest=2)

    def test_clean_steal_accepted_and_counted(self):
        monitor = self._monitor()
        monitor.on_steal(kind="intra", victim=(0, 0), thief=(0, 1),
                         verts=[1, 2], token_at_commit=3,
                         observed_token=3, amount=2, observed_rest=4)
        assert monitor.steal_events == 1


class TestInvariantViolationType:
    def test_is_simulation_error(self):
        # Callers catching SimulationError (the engine's own failure
        # type) must also see monitor violations.
        assert issubclass(InvariantViolation, SimulationError)


class TestCaseIntegration:
    @pytest.mark.parametrize("seed", [0, 3, 4])
    def test_stress_cases_pass_with_per_step_sweep(self, seed):
        case = case_from_seed(seed, stress=True)
        monitor = InvariantMonitor(check_every=1)
        run_diggerbees(case.build_graph(), case.root,
                       config=case.build_config(), check_invariants=True,
                       instrument=monitor.attach)
        monitor.final_check()
        assert monitor.sweeps > 0
