"""Tests for the multi-source (forest / warm-start) DiggerBees mode."""

import hashlib

import numpy as np
import pytest

from repro.core import DiggerBeesConfig, run_diggerbees, run_diggerbees_multi
from repro.errors import SimulationError, ValidationError
from repro.graphs import generators as gen
from repro.graphs.csr import from_edges
from repro.validate import check_tree_validity

CFG = DiggerBeesConfig(n_blocks=4, warps_per_block=2, hot_size=16,
                       hot_cutoff=4, cold_cutoff=4, flush_batch=4,
                       refill_batch=4, cold_reserve=16, seed=3)


def forest_is_valid(graph, result):
    """Each claimed root's tree must be valid over its component."""
    parent = result.traversal.parent
    for root in result.roots:
        assert parent[root] == -1
    # Validate tree-ness globally: every visited non-root has a visited
    # parent via a real edge, chains reach some root.
    from repro.validate.euler import build_euler_tour

    visited = result.traversal.visited
    for root in result.roots:
        comp = np.zeros_like(visited)
        # membership: walk chains (cheap at test sizes)
        for v in np.flatnonzero(visited):
            cur = v
            while parent[cur] >= 0:
                cur = parent[cur]
            if cur == root:
                comp[v] = True
        build_euler_tour(parent, root, comp)


class TestForestCoverage:
    def test_disconnected_covered_in_one_run(self, disconnected_graph):
        res = run_diggerbees_multi(disconnected_graph, [0, 3, 5], config=CFG,
                                   check_invariants=True)
        assert res.traversal.n_visited == 6
        assert set(res.roots) == {0, 3, 5}
        forest_is_valid(disconnected_graph, res)

    def test_same_component_roots_partition_it(self, small_road):
        """Distinct roots in one component each claim a tree: the
        component is partitioned (parallel multi-source semantics)."""
        res = run_diggerbees_multi(small_road, [0, 100, 200], config=CFG,
                                   check_invariants=True)
        assert set(res.roots) == {0, 100, 200}
        assert res.traversal.n_visited == small_road.n_vertices
        forest_is_valid(small_road, res)

    def test_duplicate_roots(self, disconnected_graph):
        res = run_diggerbees_multi(disconnected_graph, [0, 0, 3, 3], config=CFG)
        assert set(res.roots) == {0, 3}

    def test_empty_roots_rejected(self, tiny_path):
        with pytest.raises(SimulationError):
            run_diggerbees_multi(tiny_path, [], config=CFG)

    def test_root_out_of_range(self, tiny_path):
        from repro.errors import GraphFormatError

        with pytest.raises(GraphFormatError):
            run_diggerbees_multi(tiny_path, [0, 99], config=CFG)


class TestWarmStart:
    def test_multi_seed_speeds_up_deep_graph(self):
        """Seeding spread-out roots removes the single-source ramp-up on
        a deep graph: the forest covers the same vertices in fewer
        cycles."""
        g = gen.road_network(4000, seed=3)
        single = run_diggerbees_multi(g, [0], config=CFG)
        multi = run_diggerbees_multi(g, [0, 1000, 2000, 3000], config=CFG)
        assert multi.traversal.n_visited == single.traversal.n_visited
        assert multi.cycles < single.cycles

    def test_seeds_distributed_round_robin(self, disconnected_graph):
        res = run_diggerbees_multi(disconnected_graph, [0, 3, 5], config=CFG)
        # Root 3 seeded on block 1, root 5 on block 2 -> those blocks
        # recorded tasks.
        assert 1 in res.counters.tasks_per_block
        assert 2 in res.counters.tasks_per_block

    def test_deterministic(self, disconnected_graph):
        a = run_diggerbees_multi(disconnected_graph, [0, 3, 5], config=CFG)
        b = run_diggerbees_multi(disconnected_graph, [0, 3, 5], config=CFG)
        assert a.cycles == b.cycles
        assert a.roots == b.roots

    def test_mteps_positive(self, small_road):
        assert run_diggerbees_multi(small_road, [0], config=CFG).mteps > 0


class TestSingleRootEquivalence:
    @pytest.mark.parametrize("config", [
        CFG,
        CFG.with_overrides(perturb_seed=5, jitter=3),
    ], ids=["unperturbed", "perturbed"])
    def test_single_root_replays_run_diggerbees(self, config):
        """One root drains through the same driver as run_diggerbees —
        the schedule perturbation included."""
        g = gen.road_network(600, seed=3)
        multi = run_diggerbees_multi(g, [0], config=config)
        single = run_diggerbees(g, 0, config=config)
        assert multi.cycles == single.cycles
        assert multi.engine.steps == single.engine.steps
        assert np.array_equal(multi.traversal.parent,
                              single.traversal.parent)


class TestGoldenSchedules:
    """Multi-root schedules pinned bit for bit: cycles, engine steps, the
    claiming roots and a digest of the parent array.  Root ``i`` lands
    on warp 0 of block ``i % n_blocks``; the duplicate in the first case
    is skipped, and the 4-slot ring must flush while 24 roots are
    seeded on 4 blocks."""

    SPREAD = (0, 150, 300, 450, 599)
    GOLDEN = {
        "unperturbed": (45292, 1430, SPREAD, "45e0be88cf582977"),
        "perturbed": (49735, 1426, SPREAD, "ef5335835f9dbc6f"),
        "one-level": (77978, 1390, SPREAD, "e4fbb4122d8e993e"),
        "two-gpu": (46418, 1363, SPREAD, "149ed2188a87d59e"),
        "flushing-ring": (49588, 1572, tuple(range(0, 600, 25)),
                          "92807673246d4da0"),
    }
    CASES = {
        "unperturbed": (CFG, SPREAD + (150,)),
        "perturbed": (CFG.with_overrides(perturb_seed=5, jitter=3), SPREAD),
        "one-level": (CFG.with_overrides(two_level=False), SPREAD),
        "two-gpu": (CFG.with_overrides(n_gpus=2), SPREAD),
        "flushing-ring": (CFG.with_overrides(hot_size=4, hot_cutoff=2,
                                             flush_batch=2, refill_batch=2),
                          tuple(range(0, 600, 25))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_schedule_matches_golden(self, name):
        config, roots = self.CASES[name]
        res = run_diggerbees_multi(gen.road_network(600, seed=3),
                                   list(roots), config=config,
                                   check_invariants=True)
        digest = hashlib.sha256(res.traversal.parent.tobytes()).hexdigest()
        assert (res.cycles, res.engine.steps, res.roots,
                digest[:16]) == self.GOLDEN[name]
        assert res.n_trees == len(self.GOLDEN[name][2])

    def test_seeding_flushes_a_full_ring_without_charge(self):
        from repro.core.state import RunState
        from repro.sim.device import H100

        config, roots = self.CASES["flushing-ring"]
        state = RunState(gen.road_network(600, seed=3), roots[0], config, H100)
        for i, r in enumerate(roots[1:], start=1):
            assert state.seed_root(r, i % config.n_blocks)
        assert not state.seed_root(roots[5], 0)  # already claimed
        # Six roots per block into a 3-entry ring: two flushes of two.
        for block in state.blocks:
            assert (len(block.stacks[0].hot), len(block.stacks[0].cold)) \
                == (2, 4)
        assert state.pending == 24
        assert state.counters.flushes == 0

    def test_single_run_reports_its_root(self, small_road):
        res = run_diggerbees(small_road, 7, config=CFG)
        assert res.roots == (7,)
        assert res.n_trees == 1


class TestSwarmEquivalence:
    """Warm-start forest vs the swarm lockstep tier on the same roots.

    The two batch either-side engines answer different questions from
    the same seeds: the DFS forest *partitions* each component among
    the roots that landed in it, while every swarm lane traverses its
    root's whole component independently.  What must agree is the
    reachability they establish — and each swarm lane must stay
    bit-identical to its own single-root frontier run even when lanes
    overlap on a component.
    """

    def _swarm(self, graph, roots):
        from repro.core.swarm import run_swarm

        return run_swarm(graph, np.asarray(roots, dtype=np.int64))

    def test_union_reachability_matches(self, disconnected_graph):
        roots = [0, 3, 5]
        forest = run_diggerbees_multi(disconnected_graph, roots, config=CFG)
        lanes = self._swarm(disconnected_graph, roots)
        union = np.zeros(disconnected_graph.n_vertices, dtype=bool)
        for res in lanes:
            union |= res.traversal.visited
        assert np.array_equal(union, forest.traversal.visited)

    def test_overlapping_roots_same_component(self, small_road):
        """Roots sharing one component: the forest partitions it, the
        lanes each cover it — visited sets agree in the union, parents
        are independent per lane."""
        from repro.core.frontier import run_frontier

        roots = [0, 100, 200]
        forest = run_diggerbees_multi(small_road, roots, config=CFG)
        lanes = self._swarm(small_road, roots)
        for root, res in zip(roots, lanes):
            # Every lane claims the whole component on its own...
            assert np.array_equal(res.traversal.visited,
                                  forest.traversal.visited)
            # ...with its own min-parent tree rooted at its own seed,
            # bit-identical to the single-root frontier engine.
            single = run_frontier(small_road, root)
            assert res.traversal.parent[root] == -1
            assert np.array_equal(res.traversal.parent,
                                  single.traversal.parent)
            assert np.array_equal(res.level, single.level)
        # Independent parents: overlapping lanes disagree on parents
        # (different roots induce different min-parent trees) while the
        # forest assigned each vertex to exactly one tree.
        assert not np.array_equal(lanes[0].traversal.parent,
                                  lanes[1].traversal.parent)

    def test_duplicate_roots_give_identical_lanes(self, disconnected_graph):
        forest = run_diggerbees_multi(disconnected_graph, [0, 0, 3],
                                      config=CFG)
        lanes = self._swarm(disconnected_graph, [0, 0, 3])
        # The forest drops exact duplicates; swarm runs both lanes
        # and they must be bit-identical.
        assert set(forest.roots) == {0, 3}
        assert np.array_equal(lanes[0].traversal.parent,
                              lanes[1].traversal.parent)
        assert np.array_equal(lanes[0].level, lanes[1].level)
        assert np.array_equal(lanes[0].traversal.visited,
                              lanes[1].traversal.visited)
