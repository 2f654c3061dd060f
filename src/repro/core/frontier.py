"""Linear-algebra BFS: bit-packed frontiers advanced by masked gathers.

This is the repo's second engine family, after the DFS simulation
(the fused turbo loop): a *real* level-synchronous traversal in the
GraphBLAST/BLEST mold.  The frontier and visited sets are bit-packed
``uint64`` vectors (:mod:`repro.core.bitset`); one level advance is a
masked gather over the CSR arrays — semantically the masked SpMV
``next = A^T x_frontier .* ~visited`` with the min-parent semiring —
with direction-optimizing push/pull switching on frontier density
(Beamer's bottom-up heuristic).

Result contract (the ``frontier-diff`` oracle rung pins all of it):

* ``visited`` equals ground-truth reachability (``serial_dfs`` /
  ``reachable_mask``);
* ``level`` equals :func:`repro.graphs.properties.bfs_levels` exactly;
* ``parent`` is the *minimum-parent BFS tree*: for every non-root
  visited vertex ``v``, ``parent[v]`` is the smallest-id neighbour of
  ``v`` on the previous level.  That makes the tree a deterministic
  function of the graph alone — push, pull, and auto-switched runs are
  bit-identical, which is what lets the serve layer cache and replay
  frontier answers like any other canonical payload.

Directed graphs run push-only: the pull step scans *in*-neighbours,
which the (symmetric-CSR) pull gather only sees on undirected graphs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import bitset
from repro.errors import SimulationError
from repro.graphs.csr import CSRGraph
from repro.validate.reference import (
    ROOT_PARENT,
    TraversalResult,
    UNVISITED_PARENT,
)

__all__ = [
    "FrontierConfig",
    "FrontierResult",
    "run_frontier",
    "min_parent_tree",
    "FRONTIER_MODES",
]

FRONTIER_MODES = ("auto", "push", "pull")


@dataclass(frozen=True)
class FrontierConfig:
    """Knobs of the frontier engine.

    ``mode`` pins the traversal direction; ``"auto"`` switches per level
    with Beamer's heuristic: go bottom-up when the frontier's outgoing
    edges exceed ``1/alpha`` of the edges still touching unvisited
    vertices, return top-down when the frontier shrinks below
    ``n / beta`` vertices.  The mode never changes the result — only
    which side of the gather pays the scan.
    """

    mode: str = "auto"
    alpha: float = 14.0
    beta: float = 24.0

    def __post_init__(self) -> None:
        if self.mode not in FRONTIER_MODES:
            raise SimulationError(
                f"frontier mode must be one of {FRONTIER_MODES}, "
                f"got {self.mode!r}")
        if self.alpha <= 0 or self.beta <= 0:
            raise SimulationError(
                f"alpha/beta must be positive, got {self.alpha}/{self.beta}")


@dataclass(frozen=True)
class FrontierResult:
    """One frontier traversal plus its per-level execution profile."""

    traversal: TraversalResult
    level: np.ndarray            # int64, hop distance, -1 if unreachable
    n_levels: int
    pushes: int                  # levels advanced top-down
    pulls: int                   # levels advanced bottom-up
    edges_scanned: int           # gather work (MTEPS numerator)
    seconds: float

    @property
    def mteps(self) -> float:
        """Millions of scanned edges per second (0 for instant runs)."""
        if self.seconds <= 0:
            return 0.0
        return self.edges_scanned / self.seconds / 1e6


def _gather(rp: np.ndarray, ci: np.ndarray, verts: np.ndarray):
    """All CSR neighbours of ``verts``: ``(neighbours, sources)``.

    One vectorized multi-slice gather: the flat index of every adjacency
    entry is its row start plus an intra-row ramp.
    """
    starts = rp[verts]
    counts = rp[verts + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    row0 = np.zeros(verts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=row0[1:])
    flat = np.repeat(starts - row0, counts) + np.arange(total, dtype=np.int64)
    return ci[flat], np.repeat(verts, counts)


def _min_per_dst(dst: np.ndarray, src: np.ndarray):
    """Per distinct ``dst``, the minimum ``src``: ``(dsts, parents)``."""
    order = np.lexsort((src, dst))
    dsort = dst[order]
    first = np.ones(dsort.size, dtype=bool)
    first[1:] = dsort[1:] != dsort[:-1]
    return dsort[first], src[order][first]


def run_frontier(graph: CSRGraph, root: int, *,
                 config: Optional[FrontierConfig] = None) -> FrontierResult:
    """Level-synchronous traversal of ``graph`` from ``root``."""
    config = config or FrontierConfig()
    graph._check_vertex(root)
    n = graph.n_vertices
    rp, ci = graph.row_ptr, graph.column_idx
    deg = rp[1:] - rp[:-1]
    mode = "push" if graph.directed else config.mode

    t0 = time.perf_counter()
    visited = bitset.empty_bitset(n)
    parent = np.full(n, UNVISITED_PARENT, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    frontier = np.array([root], dtype=np.int64)
    bitset.set_bits(visited, frontier)
    parent[root] = ROOT_PARENT
    level[root] = 0

    # Unvisited-side edge mass for the push->pull switch.
    m_unvisited = int(deg.sum()) - int(deg[root])
    pushes = pulls = 0
    edges_scanned = 0
    depth = 0
    pulling = mode == "pull"

    while frontier.size:
        depth += 1
        if mode == "auto":
            m_frontier = int(deg[frontier].sum())
            if not pulling and m_frontier * config.alpha > m_unvisited:
                pulling = True
            elif pulling and frontier.size * config.beta < n:
                pulling = False

        if pulling:
            # Bottom-up: every unvisited vertex scans its own adjacency
            # for a frontier member; min such neighbour becomes parent.
            frontier_words = bitset.empty_bitset(n)
            bitset.set_bits(frontier_words, frontier)
            cand = bitset.nonzero_bits(~visited, n)
            neigh, dst = _gather(rp, ci, cand)
            edges_scanned += neigh.size
            in_frontier = bitset.test_bits(frontier_words, neigh)
            new_v, new_p = _min_per_dst(dst[in_frontier],
                                        neigh[in_frontier])
            pulls += 1
        else:
            # Top-down: the frontier pushes to unvisited neighbours; the
            # min pushing source wins the parent slot.
            neigh, src = _gather(rp, ci, frontier)
            edges_scanned += neigh.size
            unseen = ~bitset.test_bits(visited, neigh)
            new_v, new_p = _min_per_dst(neigh[unseen], src[unseen])
            pushes += 1

        if new_v.size == 0:
            break
        bitset.set_bits(visited, new_v)
        parent[new_v] = new_p
        level[new_v] = depth
        m_unvisited -= int(deg[new_v].sum())
        frontier = new_v

    seconds = time.perf_counter() - t0
    visited_mask = bitset.unpack_bits(visited, n)
    traversal = TraversalResult(
        root=root,
        visited=visited_mask,
        parent=parent,
        order=np.empty(0, dtype=np.int64),
        edges_traversed=edges_scanned,
    )
    reached = level[level >= 0]
    return FrontierResult(
        traversal=traversal,
        level=level,
        n_levels=int(reached.max()) + 1 if reached.size else 0,
        pushes=pushes,
        pulls=pulls,
        edges_scanned=edges_scanned,
        seconds=seconds,
    )


def min_parent_tree(graph: CSRGraph, levels: np.ndarray,
                    root: int) -> np.ndarray:
    """Reference min-parent array from an independent level assignment.

    For each visited non-root vertex, the smallest-id CSR neighbour on
    the previous level — the deterministic tie-break the engine promises.
    Used by the ``frontier-diff`` rung as an oracle that shares no code
    with the engine's per-level gathers.  Assumes symmetric adjacency
    (undirected CSR): it reads each vertex's own row as its in-edges.
    """
    rp, ci = graph.row_ptr, graph.column_idx
    parent = np.full(graph.n_vertices, UNVISITED_PARENT, dtype=np.int64)
    parent[root] = ROOT_PARENT
    verts = np.flatnonzero(levels >= 0).astype(np.int64)
    neigh, dst = _gather(rp, ci, verts)
    prev = levels[neigh] == levels[dst] - 1
    dsts, parents = _min_per_dst(dst[prev], neigh[prev])
    keep = dsts != root
    parent[dsts[keep]] = parents[keep]
    return parent
