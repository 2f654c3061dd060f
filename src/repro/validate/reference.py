"""Reference traversals used as correctness oracles.

:func:`serial_dfs` is a direct transcription of the paper's Algorithm 1
(the serial stack-based DFS over CSR, reading ``row_ptr`` and
``column_idx`` in place through memoryviews); it defines the
lexicographic DFS tree when adjacency lists are sorted.
:func:`reachable_mask` gives the ground-truth visited set every parallel
method must match.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.graphs.csr import CSRGraph

__all__ = ["TraversalResult", "serial_dfs", "reachable_mask", "dfs_discovery_order"]


@dataclass(frozen=True)
class TraversalResult:
    """Output of a traversal: the paper's ``visited`` + ``parent`` arrays.

    ``parent[root] == -1``; ``parent[v] == -2`` for unvisited vertices.
    ``order`` is the discovery order (only meaningful for serial DFS and
    NVG-DFS; parallel methods leave it empty).
    """

    root: int
    visited: np.ndarray          # bool, shape (n,)
    parent: np.ndarray           # int64, shape (n,)
    order: np.ndarray            # int64 discovery sequence, possibly empty
    edges_traversed: int = 0     # neighbour inspections (MTEPS numerator)

    @property
    def n_visited(self) -> int:
        return int(np.count_nonzero(self.visited))


UNVISITED_PARENT = -2
ROOT_PARENT = -1


def serial_dfs(graph: CSRGraph, root: int) -> TraversalResult:
    """Algorithm 1 of the paper: serial stack-based DFS over CSR.

    The stack holds ``(node, next_idx)`` pairs; ``next_idx`` is an index
    into ``column_idx`` (i.e. an absolute CSR offset, as in the paper).
    With sorted adjacency lists this produces the unique lexicographically
    ordered DFS tree.

    The loop reads the CSR arrays in place through memoryviews and keeps
    ``visited`` in a ``bytearray`` and ``parent`` and ``order`` in lists:
    indexing NumPy arrays one element at a time boxes a NumPy scalar per
    read.  The result arrays are built once at the end.
    The top pair lives in locals and its row is scanned in an inner loop
    up to the first unvisited neighbour, so a visited neighbour costs
    one inner-loop step rather than a trip through the stack, which
    holds only the suspended ancestors (as two parallel lists).
    """
    graph._check_vertex(root)
    rp = memoryview(graph.row_ptr)
    ci = memoryview(graph.column_idx)
    visited = bytearray(graph.n_vertices)
    parent = [UNVISITED_PARENT] * graph.n_vertices
    order = [root]
    edges = 0

    visited[root] = 1
    parent[root] = ROOT_PARENT
    # Suspended ancestors and the CSR offset each one resumes at.
    nodes = []
    nexts = []
    u = root
    i = rp[root]
    while True:
        start = i
        end = rp[u + 1]
        while i < end:
            v = ci[i]
            i += 1
            if not visited[v]:
                edges += i - start
                visited[v] = 1
                parent[v] = u
                order.append(v)
                nodes.append(u)
                nexts.append(i)
                u = v
                i = rp[v]
                break
        else:
            edges += end - start
            if not nodes:
                break
            u = nodes.pop()
            i = nexts.pop()
    return TraversalResult(
        root=root,
        visited=np.frombuffer(visited, dtype=bool),
        parent=np.array(parent, dtype=np.int64),
        order=np.array(order, dtype=np.int64),
        edges_traversed=edges,
    )


def reachable_mask(graph: CSRGraph, root: int) -> np.ndarray:
    """Boolean reachability mask from ``root`` (frontier-vectorized BFS)."""
    from repro.graphs.properties import bfs_levels

    return bfs_levels(graph, root) >= 0


def dfs_discovery_order(parent: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Map vertex id -> discovery rank (or -1), from a traversal's order list."""
    rank = np.full(parent.shape[0], -1, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank
