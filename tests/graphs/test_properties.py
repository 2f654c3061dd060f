"""Unit tests for graph property analyzers."""

import numpy as np
import pytest

from repro.check.cases import FAMILIES, FuzzCase
from repro.graphs import generators as gen
from repro.graphs.csr import from_edges
from repro.graphs.properties import (
    approximate_diameter,
    bfs_levels,
    connected_components,
    degree_statistics,
    largest_component,
    num_bfs_levels,
    profile_graph,
)


def _disconnected():
    """A triangle, a 4-vertex path, an edge and an isolated vertex."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (7, 8)]
    return from_edges(10, edges + [(v, u) for u, v in edges])


#: ``bfs_levels`` is the oracle the frontier-diff rung and
#: ``reachable_mask`` check against, so it is pinned to networkx on
#: every fuzz family plus the shapes that stress its gather: singleton
#: frontiers (a path), frontier vertices with no out-arcs (directed rmat
#: and citation graphs) and unreachable components.
BFS_ORACLE_GRAPHS = {
    "pa200": lambda: gen.preferential_attachment(200, m=3, seed=9),
    **{f: (lambda f=f: FuzzCase(seed=0, family=f, n_vertices=150,
                                graph_seed=5).build_graph())
       for f in FAMILIES},
    "path300": lambda: gen.path_graph(300),
    "rmat7-directed": lambda: gen.rmat(7, 4, seed=3, symmetrize=False),
    "citation150-directed": lambda: gen.citation_graph(
        150, seed=4, symmetrize=False),
    "disconnected": _disconnected,
}


def _networkx_levels(nx, graph, root):
    G = nx.DiGraph() if graph.directed else nx.Graph()
    G.add_nodes_from(range(graph.n_vertices))
    G.add_edges_from(graph.edge_array().tolist())
    expected = np.full(graph.n_vertices, -1, dtype=np.int64)
    for v, d in nx.single_source_shortest_path_length(G, root).items():
        expected[v] = d
    return expected


class TestBfsLevels:
    def test_path(self):
        g = gen.path_graph(5)
        assert list(bfs_levels(g, 0)) == [0, 1, 2, 3, 4]
        assert list(bfs_levels(g, 2)) == [2, 1, 0, 1, 2]

    def test_unreachable(self, disconnected_graph):
        lv = bfs_levels(disconnected_graph, 0)
        assert lv[3] == -1 and lv[4] == -1 and lv[5] == -1
        assert lv[1] == 1 and lv[2] == 1

    def test_single_vertex(self):
        g = gen.path_graph(1)
        assert list(bfs_levels(g, 0)) == [0]
        assert num_bfs_levels(g, 0) == 1

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for name, build in BFS_ORACLE_GRAPHS.items():
            g = build()
            n = g.n_vertices
            for root in sorted({0, 1, n // 3, n // 2, n - 1}):
                lv = bfs_levels(g, root)
                assert lv.dtype == np.int64
                assert np.array_equal(lv, _networkx_levels(nx, g, root)), (
                    name, root)

    def test_star_levels(self):
        g = gen.star_graph(50)
        assert num_bfs_levels(g, 0) == 2
        assert num_bfs_levels(g, 1) == 3


class TestComponents:
    def test_connected(self, tiny_tree):
        comp = connected_components(tiny_tree)
        assert set(comp) == {0}

    def test_disconnected(self, disconnected_graph):
        comp = connected_components(disconnected_graph)
        assert comp[0] == comp[1] == comp[2]
        assert comp[3] == comp[4]
        assert comp[0] != comp[3]
        assert len(set(comp)) == 3  # triangle, edge, isolated vertex

    def test_largest_component(self, disconnected_graph):
        sub, verts = largest_component(disconnected_graph)
        assert sub.n_vertices == 3
        assert set(verts) == {0, 1, 2}


class TestDiameter:
    def test_path_diameter(self):
        g = gen.path_graph(30)
        assert approximate_diameter(g, seed=1) == 29

    def test_cycle_diameter(self):
        g = gen.cycle_graph(20)
        assert approximate_diameter(g, seed=1) == 10

    def test_lower_bound(self):
        g = gen.road_network(500, seed=1)
        # Double-sweep is a lower bound: at least the eccentricity from 0.
        assert approximate_diameter(g, seed=1) >= num_bfs_levels(g, 0) - 1


class TestDegreeStats:
    def test_regular(self):
        g = gen.cycle_graph(10)
        stats = degree_statistics(g)
        assert stats["min"] == stats["max"] == 2
        assert not stats["heavy_tail"]

    def test_heavy_tail_detection(self):
        g = gen.preferential_attachment(2000, m=5, seed=3)
        assert degree_statistics(g)["heavy_tail"]

    def test_empty(self):
        from repro.graphs.csr import from_edges

        g = from_edges(0, [])
        stats = degree_statistics(g)
        assert stats["mean"] == 0.0


class TestProfile:
    def test_profile_fields(self, small_road):
        p = profile_graph(small_road, seed=1)
        assert p.n_vertices == small_road.n_vertices
        assert p.n_edges == small_road.n_edges
        assert p.group == "dimacs10"
        assert p.regime in ("deep", "mid", "shallow")

    def test_regimes(self):
        deep = profile_graph(gen.path_graph(400))
        shallow = profile_graph(gen.star_graph(400))
        assert deep.regime == "deep"
        assert shallow.regime == "shallow"
