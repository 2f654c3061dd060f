"""Unit + integration tests for the CPU PDFS baselines (CKL / ACR)."""

import numpy as np
import pytest

from repro.baselines.pdfs_cpu import run_acr_pdfs, run_ckl_pdfs
from repro.errors import SimulationError
from repro.graphs import generators as gen
from repro.validate.reference import reachable_mask


@pytest.mark.parametrize("runner", [run_ckl_pdfs, run_acr_pdfs],
                         ids=["ckl", "acr"])
class TestBothProtocols:
    def test_reachability_correct(self, runner, small_road):
        res = runner(small_road, 0, cores=4, seed=1)
        assert np.array_equal(res.traversal.visited,
                              reachable_mask(small_road, 0))

    def test_reachability_on_social(self, runner, small_social):
        res = runner(small_social, 0, cores=4, seed=1)
        assert np.array_equal(res.traversal.visited,
                              reachable_mask(small_social, 0))

    def test_disconnected(self, runner, disconnected_graph):
        res = runner(disconnected_graph, 0, cores=2, seed=1)
        assert res.traversal.n_visited == 3

    def test_single_core_works(self, runner, tiny_path):
        res = runner(tiny_path, 0, cores=1, seed=1)
        assert res.traversal.n_visited == 10

    def test_single_vertex(self, runner):
        g = gen.path_graph(1)
        res = runner(g, 0, cores=4, seed=1)
        assert res.traversal.n_visited == 1

    def test_no_tree_output(self, runner, small_road):
        """Table 2: CPU baselines report reachability only."""
        res = runner(small_road, 0, cores=4, seed=1)
        parent = res.traversal.parent
        assert np.all(parent[1:][res.traversal.visited[1:]] == -2)

    def test_deterministic(self, runner, small_road):
        a = runner(small_road, 0, cores=4, seed=5)
        b = runner(small_road, 0, cores=4, seed=5)
        assert a.cycles == b.cycles
        assert a.counters.edges_traversed == b.counters.edges_traversed

    def test_work_conservation(self, runner, small_road):
        res = runner(small_road, 0, cores=4, seed=1)
        assert res.counters.pushes == res.counters.pops
        assert res.counters.pushes == res.traversal.n_visited

    def test_mteps_positive(self, runner, small_road):
        assert runner(small_road, 0, cores=4, seed=1).mteps > 0

    def test_invalid_cores(self, runner, tiny_path):
        with pytest.raises(SimulationError):
            runner(tiny_path, 0, cores=0)

    def test_negative_seed_rejected(self, runner, tiny_path):
        with pytest.raises(SimulationError, match="seed"):
            runner(tiny_path, 0, cores=2, seed=-1)


class TestProtocolDifferences:
    def test_methods_labelled(self, small_road):
        assert run_ckl_pdfs(small_road, 0, cores=2).method == "CKL-PDFS"
        assert run_acr_pdfs(small_road, 0, cores=2).method == "ACR-PDFS"

    def test_stealing_happens_with_multiple_cores(self, small_road):
        res = run_ckl_pdfs(small_road, 0, cores=8, seed=1)
        assert res.counters.intra_steal_successes > 0

    def test_acr_donations_happen(self, small_road):
        res = run_acr_pdfs(small_road, 0, cores=8, seed=1)
        assert res.counters.intra_steal_successes > 0

    def test_parallel_faster_than_single_core(self):
        g = gen.delaunay_mesh(1500, seed=2)
        one = run_ckl_pdfs(g, 0, cores=1, seed=1)
        eight = run_ckl_pdfs(g, 0, cores=8, seed=1)
        assert eight.cycles < one.cycles

    def test_sim_scale_sets_cores(self, small_road):
        res = run_ckl_pdfs(small_road, 0, sim_scale=0.125, seed=1)
        assert res.cores == 8

    def test_acr_not_faster_than_ckl_on_average(self):
        """The paper's speedup over ACR (1.83x) exceeds CKL's (1.37x):
        ACR's donation latency makes it the slower baseline overall.
        Check the geomean relation over a few graphs rather than any
        single run."""
        import math

        ratios = []
        for seed in (1, 2, 3):
            g = gen.road_network(1200, seed=seed)
            c = run_ckl_pdfs(g, 0, cores=8, seed=seed)
            a = run_acr_pdfs(g, 0, cores=8, seed=seed)
            ratios.append(a.cycles / c.cycles)
        geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        assert geo >= 0.95  # ACR is not systematically faster
