"""Integration + property tests for the full DiggerBees algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiggerBeesConfig, run_diggerbees
from repro.errors import SimulationError
from repro.graphs import generators as gen
from repro.graphs.csr import from_edges
from repro.sim.device import A100, H100
from repro.utils.rng import make_rng
from repro.validate import (
    dfs_property_violations,
    reachable_mask,
    serial_dfs,
    validate_traversal,
)

SMALL_CFG = DiggerBeesConfig(n_blocks=2, warps_per_block=2, hot_size=16,
                             hot_cutoff=4, cold_cutoff=4, flush_batch=4,
                             refill_batch=4, cold_reserve=16, seed=1)


class TestCorrectness:
    @pytest.mark.parametrize("graph_builder", [
        lambda: gen.path_graph(200),
        lambda: gen.cycle_graph(100),
        lambda: gen.star_graph(150),
        lambda: gen.binary_tree(7),
        lambda: gen.grid2d(12, 12),
        lambda: gen.complete_graph(24),
        lambda: gen.road_network(600, seed=2),
        lambda: gen.preferential_attachment(500, m=4, seed=2),
        lambda: gen.delaunay_mesh(300, seed=2),
    ])
    def test_valid_tree_on_family(self, graph_builder):
        g = graph_builder()
        res = run_diggerbees(g, 0, config=SMALL_CFG, check_invariants=True)
        report = validate_traversal(g, res.traversal)
        assert report.tree_valid and report.visited_correct

    def test_disconnected_covers_component_only(self, disconnected_graph):
        res = run_diggerbees(disconnected_graph, 0, config=SMALL_CFG)
        assert res.n_visited == 3
        assert not res.traversal.visited[3]

    def test_single_vertex(self):
        g = gen.path_graph(1)
        res = run_diggerbees(g, 0, config=SMALL_CFG)
        assert res.n_visited == 1
        assert res.traversal.edges_traversed == 0

    def test_every_root_gives_valid_tree(self):
        g = gen.road_network(300, seed=4)
        for root in (0, 37, 299):
            res = run_diggerbees(g, root, config=SMALL_CFG)
            validate_traversal(g, res.traversal)
            assert res.traversal.root == root

    def test_visited_equals_serial(self, small_road):
        par = run_diggerbees(small_road, 0, config=SMALL_CFG)
        ser = serial_dfs(small_road, 0)
        assert np.array_equal(par.traversal.visited, ser.visited)

    def test_edges_traversed_equals_serial(self, small_road):
        """Unordered parallel DFS is work-efficient: every arc of the
        reachable region is inspected exactly once."""
        par = run_diggerbees(small_road, 0, config=SMALL_CFG)
        ser = serial_dfs(small_road, 0)
        assert par.traversal.edges_traversed == ser.edges_traversed

    def test_invalid_root(self, tiny_path):
        from repro.errors import GraphFormatError

        with pytest.raises(GraphFormatError):
            run_diggerbees(tiny_path, 42, config=SMALL_CFG)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_property_random_graphs_yield_valid_trees(self, seed):
        rng = make_rng(seed)
        n = int(rng.integers(2, 120))
        m = int(rng.integers(1, 4 * n))
        edges = rng.integers(0, n, size=(m, 2))
        both = np.vstack([edges, edges[:, ::-1]])
        g = from_edges(n, both, dedupe=True, drop_self_loops=True)
        root = int(rng.integers(0, n))
        res = run_diggerbees(g, root, config=SMALL_CFG, check_invariants=True)
        report = validate_traversal(g, res.traversal)
        assert report.tree_valid


class TestDeterminism:
    def test_same_seed_same_everything(self, small_road):
        a = run_diggerbees(small_road, 0, config=SMALL_CFG)
        b = run_diggerbees(small_road, 0, config=SMALL_CFG)
        assert a.cycles == b.cycles
        assert np.array_equal(a.traversal.parent, b.traversal.parent)
        assert a.counters.intra_steal_successes == b.counters.intra_steal_successes

    def test_different_seed_may_change_schedule(self, small_road):
        a = run_diggerbees(small_road, 0, config=SMALL_CFG)
        b = run_diggerbees(small_road, 0,
                           config=SMALL_CFG.with_overrides(seed=77))
        # Timing depends on victim sampling; trees may legitimately differ.
        assert a.n_visited == b.n_visited


class TestMechanisms:
    def test_stealing_engages_on_deep_graph(self):
        g = gen.road_network(2000, seed=3)
        cfg = DiggerBeesConfig.v4(H100, sim_scale=0.1, seed=3)
        res = run_diggerbees(g, 0, config=cfg)
        c = res.counters
        assert c.intra_steal_successes > 0
        assert c.inter_steal_successes > 0
        assert c.flushes > 0 and c.refill_entries >= 0

    def test_v1_never_flushes(self, small_road):
        cfg = DiggerBeesConfig.v1(H100, warps_per_block=4, seed=3)
        res = run_diggerbees(small_road, 0, config=cfg)
        assert res.counters.flushes == 0
        assert res.counters.inter_steal_attempts == 0

    def test_v2_single_block_no_inter(self, small_road):
        cfg = DiggerBeesConfig.v2(H100, warps_per_block=4, seed=3)
        res = run_diggerbees(small_road, 0, config=cfg)
        assert res.counters.inter_steal_attempts == 0

    def test_intra_disabled_still_correct(self, small_road):
        cfg = SMALL_CFG.with_overrides(enable_inter_steal=False)
        res = run_diggerbees(small_road, 0, config=cfg, check_invariants=True)
        validate_traversal(small_road, res.traversal)

    def test_entry_conservation_via_counters(self, small_road):
        res = run_diggerbees(small_road, 0, config=SMALL_CFG)
        c = res.counters
        assert c.pushes == c.pops  # every entry pushed is eventually popped
        assert c.pushes == res.n_visited  # one entry per visited vertex

    def test_unordered_tree_may_violate_strict_dfs(self):
        """Parallel work stealing produces valid but generally
        non-strict DFS trees (paper Figure 1(c) semantics); the violation
        fraction is finite and usually nonzero on cyclic graphs."""
        g = gen.delaunay_mesh(800, seed=5)
        cfg = DiggerBeesConfig(n_blocks=4, warps_per_block=4, hot_size=16,
                               hot_cutoff=4, cold_cutoff=4, flush_batch=4,
                               refill_batch=4, cold_reserve=16, seed=5)
        res = run_diggerbees(g, 0, config=cfg)
        frac = dfs_property_violations(g, res.traversal)
        assert 0.0 <= frac < 1.0

    def test_tasks_accounted_per_block(self, small_road):
        res = run_diggerbees(small_road, 0, config=SMALL_CFG)
        total = sum(res.counters.tasks_per_block.values())
        assert total == res.n_visited


class TestResultObject:
    def test_mteps_positive(self, small_road):
        res = run_diggerbees(small_road, 0, config=SMALL_CFG)
        assert res.mteps > 0
        assert res.seconds == pytest.approx(res.cycles / H100.clock_hz)

    def test_summary_keys(self, small_road):
        s = run_diggerbees(small_road, 0, config=SMALL_CFG).summary()
        for key in ("mteps", "cycles", "visited", "intra_steals",
                    "inter_steals", "flushes"):
            assert key in s

    def test_device_selection(self, small_road):
        res = run_diggerbees(small_road, 0, config=SMALL_CFG, device=A100)
        assert res.device.name == "A100"

    def test_trace_collection(self, small_road):
        cfg = SMALL_CFG.with_overrides(trace=True)
        res = run_diggerbees(small_road, 0, config=cfg)
        assert res.trace is not None
        kinds = res.trace.kinds()
        assert kinds.get("visit", 0) > 0
        assert kinds.get("pop", 0) > 0

    def test_no_trace_by_default(self, small_road):
        res = run_diggerbees(small_road, 0, config=SMALL_CFG)
        assert res.trace is None
