"""The serial reference DFS against networkx's DFS.

``serial_dfs`` is the oracle every parallel method is checked against,
so it is itself pinned to an independent implementation: on a graph
with sorted adjacency lists its discovery order and DFS tree must be
networkx's ``dfs_preorder_nodes`` and ``dfs_predecessors`` over the
same arcs in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

networkx = pytest.importorskip("networkx")

from repro.graphs.csr import from_edges
from repro.validate.reference import ROOT_PARENT, UNVISITED_PARENT, serial_dfs


@st.composite
def rooted_graphs(draw):
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    directed = draw(st.booleans())
    if not directed:
        arcs = arcs + [(v, u) for u, v in arcs]
    graph = from_edges(n, arcs, directed=directed)   # sorted adjacency
    return graph, draw(vertex)


@given(rooted_graphs())
@settings(max_examples=200)
def test_serial_dfs_matches_networkx_preorder(case):
    graph, root = case
    nx_graph = networkx.DiGraph()
    nx_graph.add_nodes_from(range(graph.n_vertices))
    # CSR order: each vertex's successors in ascending order.
    nx_graph.add_edges_from((int(u), int(v)) for u, v in graph.iter_edges())

    result = serial_dfs(graph, root)

    assert result.order.tolist() == list(
        networkx.dfs_preorder_nodes(nx_graph, root))
    expected = np.full(graph.n_vertices, UNVISITED_PARENT)
    expected[root] = ROOT_PARENT
    for v, u in networkx.dfs_predecessors(nx_graph, root).items():
        expected[v] = u
    assert result.parent.tolist() == expected.tolist()
    assert result.visited.tolist() == (expected != UNVISITED_PARENT).tolist()
    # Every out-arc of a visited vertex is inspected exactly once.
    assert result.edges_traversed == int(graph.degree()[result.visited].sum())
