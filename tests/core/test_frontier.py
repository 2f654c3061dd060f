"""Frontier engine contract: reachability, levels, min-parent tree,
and bit-identity across push/pull/auto."""

import numpy as np
import pytest

from repro.core.frontier import (
    FrontierConfig,
    min_parent_tree,
    run_frontier,
)
from repro.errors import SimulationError
from repro.graphs import generators as gen
from repro.graphs.properties import bfs_levels
from repro.validate.reference import ROOT_PARENT, UNVISITED_PARENT, serial_dfs
from repro.validate.tree import validate_traversal

GRAPHS = {
    "path": lambda: gen.path_graph(300),
    "star": lambda: gen.star_graph(200),
    "btree": lambda: gen.binary_tree(8),
    "road": lambda: gen.road_network(n_vertices=400, seed=5),
    "pa": lambda: gen.preferential_attachment(n_vertices=400, m=4, seed=6),
    "ws": lambda: gen.small_world(400, k=6, rewire_p=0.1, seed=7),
    "grid": lambda: gen.grid2d(18, 18),
    "starmesh": lambda: gen.star_mesh(12, leaves_per_hub=9, seed=8),
    "layers": lambda: gen.wide_layers(60, 5, seed=9),
    "skew": lambda: gen.skewed_tree(400, seed=10),
}


@pytest.fixture(params=sorted(GRAPHS), scope="module")
def graph(request):
    return GRAPHS[request.param]()


def test_visited_matches_serial_dfs(graph):
    res = run_frontier(graph, 0)
    ref = serial_dfs(graph, 0)
    assert np.array_equal(res.traversal.visited, ref.visited)
    assert res.traversal.n_visited == int(ref.visited.sum())
    validate_traversal(graph, res.traversal)


def test_levels_match_bfs_levels(graph):
    res = run_frontier(graph, 0)
    assert np.array_equal(res.level, bfs_levels(graph, 0))
    reached = res.level[res.level >= 0]
    assert res.n_levels == int(reached.max()) + 1


def test_parent_is_min_parent_tree(graph):
    res = run_frontier(graph, 0)
    oracle = min_parent_tree(graph, bfs_levels(graph, 0), 0)
    assert np.array_equal(res.traversal.parent, oracle)
    assert res.traversal.parent[0] == ROOT_PARENT


def test_modes_are_bit_identical(graph):
    auto = run_frontier(graph, 0)
    for mode in ("push", "pull"):
        alt = run_frontier(graph, 0, config=FrontierConfig(mode=mode))
        assert np.array_equal(alt.traversal.parent, auto.traversal.parent), \
            mode
        assert np.array_equal(alt.level, auto.level), mode
        assert np.array_equal(alt.traversal.visited,
                              auto.traversal.visited), mode


def test_directed_runs_push_only():
    g = gen.citation_graph(120, seed=3, symmetrize=False)
    # Forcing pull on a directed graph must not change the answer: the
    # engine overrides to push (pull reads rows as in-edges, which is
    # only valid on symmetric CSR).
    res = run_frontier(g, 0, config=FrontierConfig(mode="pull"))
    assert res.pulls == 0
    ref = serial_dfs(g, 0)
    assert np.array_equal(res.traversal.visited, ref.visited)
    assert np.array_equal(res.level, bfs_levels(g, 0))


def test_unreachable_vertices_stay_unvisited():
    # Two components: the far one must stay level -1 / UNVISITED_PARENT.
    from repro.graphs.csr import from_edges

    edges = [(i, i + 1) for i in range(9)] + \
            [(i, i + 1) for i in range(10, 15)]
    both = edges + [(v, u) for u, v in edges]
    g = from_edges(16, np.array(both, dtype=np.int64))
    res = run_frontier(g, 0)
    assert res.level[10:].max() == -1
    assert (res.traversal.parent[10:] == UNVISITED_PARENT).all()
    assert not res.traversal.visited[10:].any()


def test_single_vertex_and_root_checks():
    g = gen.path_graph(1)
    res = run_frontier(g, 0)
    assert res.n_levels == 1
    assert res.traversal.parent[0] == ROOT_PARENT
    with pytest.raises(Exception):
        run_frontier(gen.path_graph(4), 9)


def test_config_validation():
    with pytest.raises(SimulationError):
        FrontierConfig(mode="sideways")


def test_mteps_and_profile_counters():
    g = gen.star_mesh(12, leaves_per_hub=9, seed=8)
    res = run_frontier(g, 0)
    assert res.pushes + res.pulls == res.n_levels - 1 or \
        res.pushes + res.pulls >= res.n_levels - 1
    assert res.edges_scanned > 0
    assert res.mteps >= 0.0
