"""NVG-DFS: parallel lexicographic DFS via BFS-style path propagation.

Reimplementation of Naumov, Vrielink, Garland, "Parallel Depth-First
Search for Directed Acyclic Graphs" (IA3 '17) — the GPU DFS baseline of
the paper.  No official implementation exists; like the paper's authors,
we reimplement the path-based algorithm from its description.

The algorithm assigns every vertex its lexicographically minimal *rank
path* — the sequence of adjacency ranks along a root path.  Sorting
vertices by minimal rank path yields exactly the lexicographic DFS
discovery order, and the last path element identifies the DFS parent.

* **DAG inputs** (``graph.directed`` and acyclic): one topological pass
  suffices — ``path(v) = min over in-arcs (u, v) of path(u) +
  (rank_u(v),)`` processed level by level.  This is Naumov's setting and
  is executed mechanically here (tested to match serial lexicographic
  DFS exactly).
* **General (cyclic/undirected) inputs** — the paper's evaluation
  setting: minimal paths can improve through arbitrary arcs, so the
  propagation must iterate to a fixpoint.  Information travels one tree
  edge per round, so the round count equals the lexicographic DFS tree
  depth — tens of thousands of rounds on deep graphs, which (with the
  per-round path traffic) is what makes the paper measure DiggerBees
  30.18x faster on average and >1000x on extreme graphs.  The converged
  output *is* the serial lexicographic DFS tree, so we emit that exact
  tree and charge the analytic fixpoint cost.

Path tracking is also the method's memory Achilles heel: storage grows
with path length x vertex count plus per-arc comparison buffers; the
paper reports NVG-DFS failing on 44 of 234 graphs, reproduced here via
:class:`~repro.errors.MemoryLimitExceeded` on a per-vertex budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import MemoryLimitExceeded, SimulationError
from repro.graphs.csr import CSRGraph
from repro.graphs.properties import bfs_levels
from repro.sim.device import DeviceSpec, H100
from repro.sim.metrics import mteps as _mteps
from repro.validate.reference import (
    ROOT_PARENT,
    UNVISITED_PARENT,
    TraversalResult,
    serial_dfs,
)

__all__ = ["NvgResult", "run_nvg_dfs", "nvg_memory_footprint", "is_dag"]

#: Bytes of path storage per vertex beyond which the run is declared out
#: of memory.  This is the sim-scale stand-in for the absolute 64-80 GB
#: limit that kills the method on deep paper-scale graphs: path storage
#: per vertex grows with average depth (and the phase-2 comparison
#: buffers with per-vertex arc count), both of which are scale-invariant
#: for a graph family, so a per-vertex budget reproduces the same
#: failure pattern (deep and/or dense graphs die; shallow sparse ones
#: survive).
PATH_BYTES_PER_VERTEX_BUDGET = 2200

#: Per-round synchronization cost of the fixpoint iteration, as a
#: fraction of a full kernel launch: the rounds run in a persistent
#: kernel with device-wide sync, cheaper than host-side relaunches.
ROUND_SYNC_DIVISOR = 8


@dataclass(frozen=True)
class NvgResult:
    """Outcome of an NVG-DFS run (ordered DFS tree + timing)."""

    traversal: TraversalResult
    cycles: int
    seconds: float
    levels: int
    rounds: int
    device: DeviceSpec
    method: str = "NVG-DFS"

    @property
    def mteps(self) -> float:
        return _mteps(self.traversal.edges_traversed, self.seconds)


def is_dag(graph: CSRGraph) -> bool:
    """True for a directed acyclic graph (Kahn's algorithm)."""
    if not graph.directed:
        return False
    n = graph.n_vertices
    indeg = np.zeros(n, dtype=np.int64)
    np.add.at(indeg, graph.column_idx, 1)
    queue = list(np.flatnonzero(indeg == 0))
    seen = 0
    rp, ci = graph.row_ptr, graph.column_idx
    while queue:
        u = queue.pop()
        seen += 1
        for j in range(int(rp[u]), int(rp[u + 1])):
            v = int(ci[j])
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == n


def nvg_memory_footprint(graph: CSRGraph, level: np.ndarray) -> int:
    """Simulated bytes of path tracking.

    The implementation sizes its per-vertex path slots and per-arc
    phase-2 comparison buffers for the worst-case path length — the
    traversal's eccentricity — because path lengths are unknown until
    convergence: ``8 B x (ecc + 1) x (V_reached + E_reached)``.  Deep
    graphs blow up through the eccentricity factor, dense graphs through
    the arc term.
    """
    reached = level >= 0
    if not np.any(reached):
        return 0
    ecc = int(level[reached].max())
    n_reached = int(np.count_nonzero(reached))
    e_reached = int(graph.degree()[reached].sum())
    return 8 * (ecc + 1) * (n_reached + e_reached)


def _adjacency_ranks(graph: CSRGraph) -> np.ndarray:
    """rank_u(v) = position of v within u's adjacency list (CSR-relative)."""
    rp = graph.row_ptr
    starts = np.repeat(rp[:-1], np.diff(rp))
    return np.arange(graph.n_edges, dtype=np.int64) - starts


def _tree_depths(parent: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Depth of each visited vertex in a parent tree (root depth 0).

    ``order`` must list vertices parents-before-children (discovery
    order), so one pass suffices.  The pass runs on plain lists: indexing
    NumPy arrays one element at a time boxes a scalar per read.
    """
    par = parent.tolist()
    depth = [0] * len(par)
    for v in order.tolist():
        p = par[v]
        depth[v] = 0 if p < 0 else depth[p] + 1
    return np.array(depth, dtype=np.int64)


def _topological_order(graph: CSRGraph) -> List[int]:
    """Kahn topological order of a DAG (deterministic: lowest id first)."""
    import heapq

    n = graph.n_vertices
    indeg = np.zeros(n, dtype=np.int64)
    np.add.at(indeg, graph.column_idx, 1)
    heap = list(np.flatnonzero(indeg == 0))
    heapq.heapify(heap)
    rp, ci = graph.row_ptr, graph.column_idx
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(int(u))
        for j in range(int(rp[u]), int(rp[u + 1])):
            v = int(ci[j])
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if len(order) != n:
        raise SimulationError("topological sort called on a cyclic graph")
    return order


def _dag_propagation(graph: CSRGraph, root: int):
    """Mechanical one-pass minimal rank-path propagation over a DAG.

    Processes vertices in topological order (minimal rank paths do not
    respect BFS levels: a longer route with smaller ranks wins, and its
    arcs may stay within one BFS level).  Returns
    (parent, order, edges_touched, path_work).
    """
    n = graph.n_vertices
    rp, ci = graph.row_ptr, graph.column_idx
    ranks = _adjacency_ranks(graph)
    paths: List[Optional[Tuple[int, ...]]] = [None] * n
    parent = np.full(n, UNVISITED_PARENT, dtype=np.int64)
    paths[root] = ()
    parent[root] = ROOT_PARENT
    edges_touched = 0
    path_work = 0
    for u in _topological_order(graph):
        pu = paths[u]
        if pu is None:  # unreachable from root
            continue
        for j in range(int(rp[u]), int(rp[u + 1])):
            v = int(ci[j])
            edges_touched += 1
            cand = pu + (int(ranks[j]),)
            path_work += len(cand)
            if paths[v] is None or cand < paths[v]:
                paths[v] = cand
                parent[v] = u
    visited_idx = [v for v in range(n) if paths[v] is not None]
    visited_idx.sort(key=lambda v: paths[v])
    order = np.asarray(visited_idx, dtype=np.int64)
    return parent, order, edges_touched, path_work


def run_nvg_dfs(
    graph: CSRGraph,
    root: int,
    *,
    device: DeviceSpec = H100,
    sim_scale: float = 1.0,
    memory_budget_per_vertex: int = PATH_BYTES_PER_VERTEX_BUDGET,
) -> NvgResult:
    """Run NVG-DFS on ``graph`` from ``root``.

    Raises
    ------
    MemoryLimitExceeded
        When the simulated path-tracking footprint exceeds the budget
        (the paper's 44/234 failure mode).
    """
    graph._check_vertex(root)
    n = graph.n_vertices

    # ---- Phase 1: leveling. ----
    level = bfs_levels(graph, root)
    reached = level >= 0
    n_levels = int(level[reached].max()) + 1 if np.any(reached) else 0

    footprint = nvg_memory_footprint(graph, level)
    budget = memory_budget_per_vertex * max(1, int(np.sum(reached)))
    if footprint > budget:
        raise MemoryLimitExceeded(
            footprint, budget,
            detail=f"path tracking over {n_levels} levels",
        )

    costs = device.costs
    sms = max(1, device.default_blocks(sim_scale))
    throughput = costs.nvg_edge_throughput * sms  # path elements / cycle

    # ---- Phase 2: path propagation. ----
    if is_dag(graph):
        parent, order, edges_touched, path_work = _dag_propagation(graph, root)
        rounds = max(1, n_levels)
        sync_cycles = rounds * costs.kernel_launch  # one kernel per level
    else:
        # General graph: the converged fixpoint is the serial
        # lexicographic DFS tree; charge the iterative cost.
        ref = serial_dfs(graph, root)
        parent, order = ref.parent, ref.order
        depth = _tree_depths(parent, order)
        rounds = int(depth[order].max()) + 1 if order.size else 1
        avg_depth = float(depth[order].mean()) + 1.0 if order.size else 1.0
        edges_touched = graph.n_edges * 2  # relaxations until settled
        path_work = int(graph.n_edges * avg_depth)
        sync_cycles = (n_levels * costs.kernel_launch          # phase-1 BFS
                       + rounds * (costs.kernel_launch // ROUND_SYNC_DIVISOR))

    visited = np.zeros(n, dtype=bool)
    visited[order] = True
    if not np.array_equal(visited, reached):
        raise SimulationError("NVG path propagation missed reachable vertices")

    # ---- Phase 3: ordering (sort of the path labels). ----
    sort_cycles = order.size * np.log2(max(order.size, 2)) / throughput
    work_cycles = (edges_touched + path_work) / throughput
    log_launches = max(1, int(np.ceil(np.log2(max(n, 2)))))
    cycles = int(sync_cycles + log_launches * costs.kernel_launch
                 + work_cycles + sort_cycles)
    seconds = device.cycles_to_seconds(cycles)

    traversal = TraversalResult(
        root=root,
        visited=visited,
        parent=parent,
        order=order,
        edges_traversed=graph.n_edges,  # every arc is examined
    )
    return NvgResult(
        traversal=traversal,
        cycles=cycles,
        seconds=seconds,
        levels=n_levels,
        rounds=rounds,
        device=device,
    )
