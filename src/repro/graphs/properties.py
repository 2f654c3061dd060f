"""Structural property analyzers for graphs.

Used to (a) verify that the synthetic corpus lands in the structural
regimes the paper's conclusions depend on (deep/narrow vs shallow/wide),
and (b) regenerate Tables 3 and 4.  Everything here is pure NumPy
(frontier-vectorized BFS) so analysis stays fast on simulator-scale
graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.utils.rng import RngLike, make_rng

__all__ = [
    "bfs_levels",
    "num_bfs_levels",
    "connected_components",
    "largest_component",
    "approximate_diameter",
    "degree_statistics",
    "GraphProfile",
    "profile_graph",
    "classify_regime",
]


def bfs_levels(graph: CSRGraph, root: int) -> np.ndarray:
    """Level (hop distance) of every vertex from ``root``; -1 if unreachable.

    Frontier-vectorized: each level gathers every neighbour of the whole
    frontier in one pass, the flat CSR index of each adjacency entry
    being its row start plus a ramp (``repeat(start - offset, degree) +
    arange(total)``).  Deep graphs have near-singleton levels, where the
    per-level overhead dominates: a one-vertex frontier is gathered with
    one slice.  A level's repeated candidates are dropped without a
    sort: each candidate writes its position into ``stamp``, and only
    the one occurrence per vertex whose position survived is kept.  The
    frontier is then unsorted, which no level depends on.
    """
    n = graph.n_vertices
    graph._check_vertex(root)
    level = np.full(n, -1, dtype=np.int64)
    level[root] = 0
    stamp = np.empty(n, dtype=np.int64)
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    rp, ci = graph.row_ptr, graph.column_idx
    while frontier.size:
        depth += 1
        if frontier.size == 1:
            v = frontier[0]
            cand = ci[rp[v]:rp[v + 1]]
        else:
            starts = rp[frontier]
            counts = rp[frontier + 1] - starts
            offset = np.cumsum(counts)
            total = int(offset[-1])
            offset -= counts  # exclusive prefix sum: each row's start in cand
            cand = ci[np.repeat(starts - offset, counts)
                      + np.arange(total, dtype=np.int64)]
        new = cand[level[cand] < 0]
        if new.size > 1:
            pos = np.arange(new.size, dtype=np.int64)
            stamp[new] = pos
            new = new[stamp[new] == pos]
        level[new] = depth
        frontier = new
    return level


def num_bfs_levels(graph: CSRGraph, root: int) -> int:
    """Number of BFS levels from ``root`` (the paper quotes 17,346 for
    euro_osm vs 10 for ljournal — the axis of the BFS/DFS crossover)."""
    lv = bfs_levels(graph, root)
    reached = lv[lv >= 0]
    return int(reached.max()) + 1 if reached.size else 0


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component id per vertex (undirected interpretation), via repeated BFS."""
    n = graph.n_vertices
    comp = np.full(n, -1, dtype=np.int64)
    cid = 0
    for v in range(n):
        if comp[v] >= 0:
            continue
        lv = bfs_levels(graph, v)
        comp[lv >= 0] = cid
        cid += 1
    return comp


def largest_component(graph: CSRGraph) -> Tuple[CSRGraph, np.ndarray]:
    """Induced subgraph on the largest connected component.

    Returns ``(subgraph, original_vertex_ids)``.  Traversal papers
    evaluate on the giant component; generators here already guarantee
    connectivity, so this is mainly for externally loaded graphs.
    """
    comp = connected_components(graph)
    counts = np.bincount(comp)
    big = int(np.argmax(counts))
    verts = np.flatnonzero(comp == big)
    return graph.subgraph(verts), verts


def approximate_diameter(graph: CSRGraph, *, seed: RngLike = None, sweeps: int = 4) -> int:
    """Lower-bound diameter estimate by iterated double sweep.

    Start from a random vertex, repeatedly BFS to the farthest vertex;
    the final eccentricity is a (usually tight) lower bound.
    """
    n = graph.n_vertices
    if n == 0:
        return 0
    rng = make_rng(seed)
    v = int(rng.integers(0, n))
    best = 0
    for _ in range(max(1, sweeps)):
        lv = bfs_levels(graph, v)
        reached = lv >= 0
        if not np.any(reached):
            break
        ecc = int(lv[reached].max())
        best = max(best, ecc)
        far = np.flatnonzero(lv == ecc)
        v = int(far[0])
    return best


def degree_statistics(graph: CSRGraph) -> dict:
    """Degree distribution summary (min/max/mean plus heavy-tail indicator)."""
    deg = graph.degree()
    if deg.size == 0:
        return {"min": 0, "max": 0, "mean": 0.0, "p99": 0, "heavy_tail": False}
    p99 = float(np.percentile(deg, 99))
    mean = float(deg.mean())
    return {
        "min": int(deg.min()),
        "max": int(deg.max()),
        "mean": mean,
        "p99": p99,
        # Heavy tail: the 99th percentile dwarfs the mean (power-law signature).
        "heavy_tail": bool(p99 > 4.0 * mean and deg.max() > 16),
    }


@dataclass(frozen=True)
class GraphProfile:
    """Structural profile of a graph, used for Table 4 and regime checks."""

    name: str
    n_vertices: int
    n_edges: int
    avg_degree: float
    max_degree: int
    bfs_levels_from_0: int
    approx_diameter: int
    heavy_tail: bool
    group: str

    @property
    def regime(self) -> str:
        """``"deep"`` (road/mesh-like), ``"shallow"`` (social-like), or ``"mid"``."""
        return classify_regime(self.n_vertices, self.bfs_levels_from_0)


def classify_regime(n_vertices: int, levels: int) -> str:
    """``"deep"``, ``"shallow"``, or ``"mid"`` from a BFS level count.

    The classifier mirrors the paper's discussion: road networks and
    meshes need ~O(sqrt(n)) or more BFS levels (deep), social/web
    graphs finish in ~O(log n) levels (shallow).  Tables 3 and 4 report
    it; backend routing keys on levels per vertex instead
    (:func:`repro.core.dispatch.graph_regime`).
    """
    import math

    n = max(int(n_vertices), 2)
    if levels >= 1.2 * math.sqrt(n):
        return "deep"
    if levels <= 2.5 * math.log2(n):
        return "shallow"
    return "mid"


def profile_graph(graph: CSRGraph, *, seed: RngLike = None) -> GraphProfile:
    """Compute a :class:`GraphProfile` for ``graph``."""
    deg = degree_statistics(graph)
    levels = num_bfs_levels(graph, 0) if graph.n_vertices else 0
    return GraphProfile(
        name=graph.name or "unnamed",
        n_vertices=graph.n_vertices,
        n_edges=graph.n_edges,
        avg_degree=deg["mean"],
        max_degree=deg["max"],
        bfs_levels_from_0=levels,
        approx_diameter=approximate_diameter(graph, seed=seed),
        heavy_tail=deg["heavy_tail"],
        group=str(graph.meta.get("group", "unknown")),
    )
