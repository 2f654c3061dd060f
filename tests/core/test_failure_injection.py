"""Failure injection: classic work-stealing bugs must be *caught*.

Each test monkeypatches one canonical concurrency bug into the stealing
or claiming machinery and asserts that the safety net — run-state
invariants, the engine's deadlock guard, or the output validators —
detects it.  This is what makes the green test suite meaningful: the
checks are demonstrably capable of failing.
"""

import numpy as np
import pytest

from repro.core import DiggerBeesConfig, run_diggerbees
from repro.core import intra_steal
from repro.core.state import RunState
from repro.core.warp_dfs import WarpAgent
from repro.errors import DeadlockError, SimulationError, ValidationError
from repro.graphs import generators as gen
from repro.sim.device import H100
from repro.sim.engine import EventLoop
from repro.validate import validate_traversal

CFG = DiggerBeesConfig(n_blocks=2, warps_per_block=4, hot_size=16,
                       hot_cutoff=4, cold_cutoff=4, flush_batch=4,
                       refill_batch=4, cold_reserve=16, seed=3)


def run_with_invariants(graph, config=CFG):
    return run_diggerbees(graph, 0, config=config, check_invariants=True)


class TestDuplicatingSteal:
    def test_copy_without_remove_is_caught(self, monkeypatch):
        """Bug: the thief copies the victim's entries but the victim's
        tail is never advanced (forgotten CAS write-back).  Entries are
        duplicated; the pending counter and the per-stack contents
        disagree, and vertices appear in two stacks.  Only the live
        steal's take step is replaced, so the rest of the protocol runs
        as written."""
        def copy_without_remove(hot, plan, amount):
            # Read the oldest entries WITHOUT removing them.
            verts, offs = zip(*hot.snapshot()[:amount])
            return list(verts), list(offs)

        monkeypatch.setattr(intra_steal, "_take", copy_without_remove)
        g = gen.road_network(800, seed=3)
        with pytest.raises((SimulationError, DeadlockError)):
            run_with_invariants(g)


class TestMissingVisitedCas:
    def test_lost_visited_write_is_caught(self):
        """Bug: the claim's visited write never lands (dropped store).
        Every later scan still sees the vertex as unvisited, so it gets
        claimed and pushed again while its first entry is still stacked —
        the invariant checker must flag the duplicate."""
        g = gen.delaunay_mesh(400, seed=3)
        state = RunState(g, 0, CFG, H100)
        original_claim = RunState.try_claim_vertex

        def claim_without_store(v, parent):
            ok = original_claim(state, v, parent)
            if ok:
                state.visited[v] = 0       # the store is lost
            return ok

        state.try_claim_vertex = claim_without_store
        agents = [WarpAgent(state, b, w) for b in range(CFG.n_blocks)
                  for w in range(CFG.warps_per_block)]

        def stacked_vertices():
            return [v for blk in state.blocks for s in blk.stacks
                    for v, _ in s.snapshot()]

        caught = False
        for _ in range(3000):
            if state.is_terminated():
                break
            for a in agents:
                a.step(0)
            counts = stacked_vertices()
            if len(counts) != len(set(counts)):
                # Re-mark so the checker reaches the duplicate check
                # rather than tripping on the (also-corrupt) flags.
                for v in counts:
                    state.visited[v] = 1
                with pytest.raises(SimulationError, match="more than one"):
                    state.check_invariants()
                caught = True
                break
        assert caught, "corruption never produced a duplicate to catch"

    def test_phantom_parent_is_caught_by_validator(self):
        """Bug: a claim records the wrong parent (e.g. stale register).
        Tree validation must reject the output."""
        g = gen.road_network(500, seed=3)
        res = run_diggerbees(g, 0, config=CFG)
        parent = res.traversal.parent.copy()
        victim = int(np.flatnonzero(parent >= 0)[5])
        # Point the vertex at a non-adjacent vertex.
        nbrs = set(g.neighbors(victim).tolist())
        stranger = next(v for v in range(g.n_vertices)
                        if v not in nbrs and v != victim)
        parent[victim] = stranger
        broken = res.traversal.__class__(
            root=res.traversal.root, visited=res.traversal.visited,
            parent=parent, order=res.traversal.order)
        with pytest.raises(ValidationError) as exc:
            validate_traversal(g, broken)
        # Structured details must name the corrupted edge exactly.
        assert exc.value.check == "tree_edge_missing"
        assert exc.value.details["vertex"] == victim
        assert exc.value.details["parent"] == stranger


class TestLostWork:
    def test_dropped_entries_deadlock_detected(self, monkeypatch):
        """Bug: the thief's CAS succeeds but the copy is lost (e.g. the
        fence was forgotten and the buffer reused).  Entries vanish while
        ``pending`` still counts them: the traversal can never terminate
        and the engine's deadlock guard must fire.  Only the live steal's
        delivery step is replaced: the take removes the entries ..."""
        def lossy(hot, verts, offs):
            pass  # ... but they never land in the thief's ring.

        monkeypatch.setattr(intra_steal, "_deliver", lossy)
        g = gen.road_network(800, seed=3)
        with pytest.raises((DeadlockError, SimulationError)):
            run_diggerbees(g, 0, config=CFG)


class TestCorruptedCounters:
    def test_pending_mismatch_detected(self):
        """The invariant checker must notice a drifted pending counter."""
        g = gen.path_graph(50)
        state = RunState(g, 0, CFG, H100)
        state.pending += 1  # phantom entry
        with pytest.raises(SimulationError, match="pending"):
            state.check_invariants()

    def test_unvisited_stacked_vertex_detected(self):
        g = gen.path_graph(50)
        state = RunState(g, 0, CFG, H100)
        stack = state.blocks[0].stacks[1]
        stack.hot.push(7, 0)     # vertex 7 pushed without being claimed
        state.pending += 1
        with pytest.raises(SimulationError, match="not marked visited"):
            state.check_invariants()

    def test_duplicate_stack_entry_detected(self):
        g = gen.path_graph(50)
        state = RunState(g, 0, CFG, H100)
        # Vertex 0 (the root, already stacked in warp 0) appears again.
        state.blocks[1].stacks[0].hot.push(0, 0)
        state.pending += 1
        with pytest.raises(SimulationError, match="more than one stack"):
            state.check_invariants()
