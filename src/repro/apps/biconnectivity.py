"""Articulation points and bridges via DFS (Hopcroft-Tarjan, iterative).

The paper's introduction notes the trend of "DFS-avoidance" — e.g.
parallel biconnectivity reformulated to bypass DFS [27] at the price of
more complex algorithms.  This module is the classic DFS-based solution
the avoidance literature is avoiding: articulation points, bridges, and
biconnected-component labelling of edges, in one iterative low-link
pass over CSR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ValidationError
from repro.graphs.csr import CSRGraph

__all__ = ["BiconnectivityResult", "biconnectivity"]


@dataclass(frozen=True)
class BiconnectivityResult:
    """Articulation structure of an undirected graph.

    ``edge_component[j]`` labels stored arc ``j`` with its biconnected
    component id (both directions of an undirected edge get the same
    label); ``-1`` marks self-loops/arcs out of the traversed region.
    """

    articulation_points: np.ndarray    # bool per vertex
    bridges: np.ndarray                # (k, 2) vertex pairs, u < v
    edge_component: np.ndarray         # int per stored arc
    n_components: int

    def bridge_set(self) -> set:
        return {tuple(b) for b in self.bridges.tolist()}


def biconnectivity(graph: CSRGraph) -> BiconnectivityResult:
    """Hopcroft-Tarjan low-link computation over all components.

    Raises :class:`ValidationError` on directed input (biconnectivity is
    an undirected notion; symmetrize first).
    """
    if graph.directed:
        raise ValidationError("biconnectivity requires an undirected graph")
    n = graph.n_vertices
    rp, ci = graph.row_ptr, graph.column_idx

    disc = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    is_ap = np.zeros(n, dtype=bool)
    edge_comp = np.full(graph.n_edges, -1, dtype=np.int64)
    bridges: List[tuple] = []
    edge_stack: List[int] = []      # CSR arc indices of tree/back edges
    clock = 0
    n_comp = 0

    # Arc j's reverse arc index, for labelling both directions at once.
    reverse = _reverse_arc_index(graph)

    for start in range(n):
        if disc[start] >= 0:
            continue
        root = start
        root_children = 0
        # Frame: [vertex, arc cursor, parent arc (CSR index) or -1]
        stack = [[start, int(rp[start]), -1]]
        disc[start] = low[start] = clock
        clock += 1
        while stack:
            frame = stack[-1]
            u, j, parc = frame
            if j < rp[u + 1]:
                frame[1] = j + 1
                v = int(ci[j])
                if v == u:
                    continue  # self-loop: no biconnectivity content
                if disc[v] < 0:
                    # Tree edge.
                    if u == root:
                        root_children += 1
                    edge_stack.append(j)
                    disc[v] = low[v] = clock
                    clock += 1
                    stack.append([v, int(rp[v]), j])
                elif parc >= 0 and v == int(ci[reverse[parc]]) and j == reverse[parc]:
                    continue  # the reverse of the tree edge we came by
                elif disc[v] < disc[u]:
                    # Back edge to an ancestor.
                    edge_stack.append(j)
                    low[u] = min(low[u], disc[v])
            else:
                stack.pop()
                if parc < 0:
                    continue  # component root finished
                p = int(_arc_src(graph, parc))
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    # p separates u's subtree: pop one biconnected comp
                    # (p's articulation status handled below; the root is
                    # special-cased by its child count).
                    comp_arcs = []
                    while edge_stack:
                        arc = edge_stack.pop()
                        comp_arcs.append(arc)
                        if arc == parc:
                            break
                    for arc in comp_arcs:
                        edge_comp[arc] = n_comp
                        edge_comp[reverse[arc]] = n_comp
                    if len(comp_arcs) == 1:
                        a, b = int(_arc_src(graph, parc)), int(ci[parc])
                        bridges.append((min(a, b), max(a, b)))
                    if p != root:
                        is_ap[p] = True
                    n_comp += 1
        if root_children > 1:
            is_ap[root] = True

    bridge_arr = (np.asarray(sorted(set(bridges)), dtype=np.int64)
                  if bridges else np.empty((0, 2), dtype=np.int64))
    return BiconnectivityResult(
        articulation_points=is_ap,
        bridges=bridge_arr,
        edge_component=edge_comp,
        n_components=n_comp,
    )


def _reverse_arc_index(graph: CSRGraph) -> np.ndarray:
    """reverse[j] = CSR index of arc (v, u) for arc j = (u, v).

    Requires a symmetric graph; raises otherwise.  For parallel-free
    symmetric CSR with sorted neighbours this is a binary search per arc.
    """
    rp, ci = graph.row_ptr, graph.column_idx
    src = np.repeat(np.arange(graph.n_vertices, dtype=np.int64),
                    graph.degree())
    reverse = np.full(graph.n_edges, -1, dtype=np.int64)
    for j in range(graph.n_edges):
        u, v = int(src[j]), int(ci[j])
        lo, hi = int(rp[v]), int(rp[v + 1])
        pos = lo + int(np.searchsorted(ci[lo:hi], u))
        if pos >= hi or ci[pos] != u:
            raise ValidationError(
                f"arc ({u}->{v}) has no reverse: graph is not symmetric"
            )
        reverse[j] = pos
    return reverse


def _arc_src(graph: CSRGraph, j: int) -> int:
    """Source vertex of stored arc ``j`` (binary search over row_ptr)."""
    return int(np.searchsorted(graph.row_ptr, j, side="right") - 1)
